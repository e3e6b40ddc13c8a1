"""Text format for joint models.

Line oriented, whitespace separated, `#` starts a comment.  Global keys come
first, then one block per agent, then optional joint goal pairs:

    model example
    horizon 4
    comm_cost -1.0
    initial s0 s0

    agent 1 left
      states s0 s1
      actions move stay
      noop stay
      goals s1
      cost move -1
      cost stay 0
      trans s0 move : s0 0.5 s1 0.5
      trans s0 stay : s0 1.0
      trans s1 move : s1 1.0
      trans s1 stay : s1 1.0

    agent 2 right
      ...

    goal_pairs (s1,s1)

States and actions are referenced by label.  Transition rows not listed
default to staying in place with probability 1.  The goal pairs fill the
model's (n1, n2) goal mask.  Every key takes exactly its number of values
(the agent name is optional, and states, actions, goals and goal_pairs take
a list), numbers must be finite, the horizon and agent index integers, and
no key, state or action label, action cost or (state, action) trans row
may repeat.  Serialization is canonical (sorted, fixed formatting, a cost
line per action), so parse -> serialize -> parse is an identity; models
with a potential or an extra reward, which the format cannot carry, are
refused.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .model import AgentModel, DecMdpCom, FactoredState


class ModelFormatError(ValueError):
    pass


def _number(tok: str, ln: int) -> float:
    try:
        x = float(tok)
    except ValueError:
        raise ModelFormatError(f"line {ln}: '{tok}' is not a number") from None
    if not math.isfinite(x):
        raise ModelFormatError(f"line {ln}: non-finite number '{tok}'")
    return x


def _integer(tok: str, ln: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ModelFormatError(f"line {ln}: '{tok}' is not an integer") from None


def _values(toks: list, ln: int, fewest: int, most: Optional[float] = None) -> list:
    """The values after a line's key, between fewest and most of them (exactly
    fewest when most is None), or an error naming the line."""
    vals = toks[1:]
    if len(vals) < fewest:
        raise ModelFormatError(f"line {ln}: '{toks[0]}' is missing a value")
    most = fewest if most is None else most
    if len(vals) > most:
        extra = " ".join(vals[int(most):])
        raise ModelFormatError(f"line {ln}: '{toks[0]}' has extra tokens: {extra}")
    return vals


def _once(seen: dict, key, ln: int, what: str) -> None:
    if key in seen:
        raise ModelFormatError(f"line {ln}: repeated {what} (first on line {seen[key]})")
    seen[key] = ln


def _tokenize(text: str) -> list:
    lines = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((ln, line.split()))
    return lines


def _parse_agent_block(lines, i, expected_index):
    if i >= len(lines):
        raise ModelFormatError(f"missing block 'agent {expected_index}'")
    ln, toks = lines[i]
    if toks[0] != "agent" or _integer(_values(toks, ln, 1, 2)[0], ln) != expected_index:
        raise ModelFormatError(f"line {ln}: expected 'agent {expected_index}'")
    name = toks[2] if len(toks) > 2 else f"agent{expected_index}"
    i += 1
    fields: dict = {}
    costs: dict = {}
    trans_rows: list = []
    seen: dict = {}
    while i < len(lines):
        ln, toks = lines[i]
        key = toks[0]
        if key in ("agent", "goal_pairs"):
            break
        if key in ("states", "actions", "noop", "goals"):
            _once(seen, key, ln, f"key '{key}'")
            fields[key] = _values(toks, ln, 1) if key == "noop" else toks[1:]
            for k, lbl in enumerate(fields[key] if key in ("states", "actions") else ()):
                if lbl in fields[key][:k]:
                    raise ModelFormatError(f"line {ln}: repeated {key[:-1]} '{lbl}'")
        elif key == "cost":
            a_lbl, c = _values(toks, ln, 2)
            _once(seen, ("cost", a_lbl), ln, f"cost for action '{a_lbl}'")
            costs[a_lbl] = _number(c, ln)
        elif key == "trans":
            if ":" not in toks:
                raise ModelFormatError(f"line {ln}: trans row missing ':'")
            sep = toks.index(":")
            if sep != 3:
                raise ModelFormatError(f"line {ln}: trans expects 'trans STATE ACTION :'")
            pairs = toks[sep + 1 :]
            if len(pairs) % 2 != 0:
                raise ModelFormatError(f"line {ln}: trans row has dangling token")
            _once(seen, ("trans", toks[1], toks[2]), ln, f"trans {toks[1]} {toks[2]}")
            row = [(pairs[j], _number(pairs[j + 1], ln)) for j in range(0, len(pairs), 2)]
            trans_rows.append((ln, toks[1], toks[2], row))
        else:
            raise ModelFormatError(f"line {ln}: unknown key '{key}' in agent block")
        i += 1
    states, actions, goals = (fields.get(k, []) for k in ("states", "actions", "goals"))
    noop: Optional[str] = fields["noop"][0] if "noop" in fields else None
    if not states or not actions:
        raise ModelFormatError(f"agent {expected_index}: states and actions are required")
    sidx = {s: k for k, s in enumerate(states)}
    aidx = {a: k for k, a in enumerate(actions)}
    n, na = len(states), len(actions)
    if noop is not None and noop not in aidx:
        raise ModelFormatError(f"line {seen['noop']}: unknown noop action '{noop}'")
    transition = np.zeros((n, na, n))
    listed = set()
    for ln, s_lbl, a_lbl, row in trans_rows:
        if s_lbl not in sidx:
            raise ModelFormatError(f"line {ln}: unknown state '{s_lbl}'")
        if a_lbl not in aidx:
            raise ModelFormatError(f"line {ln}: unknown action '{a_lbl}'")
        for t_lbl, p in row:
            if t_lbl not in sidx:
                raise ModelFormatError(f"line {ln}: unknown successor '{t_lbl}'")
            transition[sidx[s_lbl], aidx[a_lbl], sidx[t_lbl]] += p
        listed.add((sidx[s_lbl], aidx[a_lbl]))
    for s in range(n):
        for a in range(na):
            if (s, a) not in listed:
                transition[s, a, s] = 1.0  # unlisted rows stay in place
            elif abs(transition[s, a].sum() - 1.0) > 1e-9:
                raise ModelFormatError(
                    f"agent {expected_index}: trans {states[s]} {actions[a]}"
                    f" sums to {float(transition[s, a].sum())!r}, expected 1"
                )
    action_cost = np.zeros(na)
    for a_lbl, c in costs.items():
        if a_lbl not in aidx:
            raise ModelFormatError(f"agent {expected_index}: cost for unknown action '{a_lbl}'")
        action_cost[aidx[a_lbl]] = c
    for g in goals:
        if g not in sidx:
            raise ModelFormatError(f"agent {expected_index}: goal for unknown state '{g}'")
    agent = AgentModel(
        n_states=n,
        actions=tuple(actions),
        transition=transition,
        goal_candidates=tuple(sidx[g] for g in goals),
        action_cost=action_cost,
        noop=aidx[noop] if noop is not None else None,
        state_labels=tuple(states),
        name=name,
    )
    return agent, i


def parse_model(text: str) -> DecMdpCom:
    lines = _tokenize(text)
    name = "model"
    horizon = None
    comm_cost = None
    initial = None
    seen: dict = {}
    i = 0
    while i < len(lines):
        ln, toks = lines[i]
        key = toks[0]
        if key in ("model", "horizon", "comm_cost", "initial"):
            _once(seen, key, ln, f"key '{key}'")
        if key == "model":
            (name,) = _values(toks, ln, 1)
        elif key == "horizon":
            horizon = _integer(_values(toks, ln, 1)[0], ln)
        elif key == "comm_cost":
            comm_cost = _number(_values(toks, ln, 1)[0], ln)
        elif key == "initial":
            initial = _values(toks, ln, 2)
        elif key == "agent":
            break
        else:
            raise ModelFormatError(f"line {ln}: unknown key '{key}' in header")
        i += 1
    if horizon is None or comm_cost is None or initial is None:
        raise ModelFormatError("header must define horizon, comm_cost and initial")
    agent1, i = _parse_agent_block(lines, i, 1)
    agent2, i = _parse_agent_block(lines, i, 2)
    goal = None
    if i < len(lines):
        ln, toks = lines[i]
        if toks[0] != "goal_pairs":
            raise ModelFormatError(f"line {ln}: expected 'goal_pairs', got '{toks[0]}'")
        goal = np.zeros((agent1.n_states, agent2.n_states), dtype=bool)
        for tok in _values(toks, ln, 1, math.inf):
            l1, comma, l2 = tok.strip("()").partition(",")
            if not comma:
                raise ModelFormatError(f"line {ln}: goal pair '{tok}' has no comma")
            try:
                g1 = agent1.state_labels.index(l1)
                g2 = agent2.state_labels.index(l2)
            except ValueError as exc:
                raise ModelFormatError(f"line {ln}: unknown goal pair '{tok}'") from exc
            goal[g1, g2] = True
        i += 1
    if i < len(lines):
        ln, _ = lines[i]
        raise ModelFormatError(f"line {ln}: trailing content after goal_pairs")

    def lookup(agent: AgentModel, label: str) -> int:
        try:
            return agent.state_labels.index(label)
        except ValueError as exc:
            raise ModelFormatError(f"initial state '{label}' unknown for {agent.name}") from exc

    s0 = FactoredState(lookup(agent1, initial[0]), lookup(agent2, initial[1]))
    return DecMdpCom(
        agent1=agent1,
        agent2=agent2,
        comm_cost=comm_cost,
        horizon=horizon,
        initial_state=s0,
        goal=goal,
        name=name,
    )


def _fmt(x: float) -> str:
    return repr(float(x))


def serialize_model(m: DecMdpCom) -> str:
    """Canonical text form of a joint model, stable under reparsing.  Each
    name and label must be a token the parser reads back, and no state or
    action label may repeat in its list (ValueError naming it otherwise)."""
    for attr in ("potential", "extra_reward"):
        if getattr(m, attr) is not None:
            raise ValueError(f"model {m.name!r} has a {attr}, which the text format cannot write")
    tokens = [("model name", m.name, "#")]
    for idx, agent in ((1, m.agent1), (2, m.agent2)):
        tokens.append((f"agent {idx} name", agent.name, "#"))
        # goal pairs are written as (a,b), so state labels hold no ( ) ,
        states, actions = agent.state_labels, tuple(map(str, agent.actions))
        for kind, labels, bad in (("state", states, "#(),"), ("action", actions, "#")):
            tokens += [(f"agent {idx} {kind} label", lbl, bad) for lbl in labels]
            for k, lbl in enumerate(labels):
                if lbl in labels[:k]:
                    raise ValueError(f"agent {idx} {kind} label {lbl!r} is repeated")
    for what, tok, bad in tokens:
        if tok.split() != [tok] or tok == ":" or any(c in tok for c in bad):
            raise ValueError(
                f"{what} {tok!r} is not one token: it must not be empty, ':',"
                f" or hold whitespace or any of {' '.join(bad)}"
            )
    out = [f"model {m.name}", f"horizon {m.horizon}", f"comm_cost {_fmt(m.comm_cost)}"]
    a1, a2 = m.agent1, m.agent2
    lbl1, lbl2 = a1.state_labels, a2.state_labels
    out.append(f"initial {lbl1[m.initial_state.s1]} {lbl2[m.initial_state.s2]}")
    for idx, agent, labels in ((1, a1, lbl1), (2, a2, lbl2)):
        out.append("")
        out.append(f"agent {idx} {agent.name}")
        out.append("  states " + " ".join(labels))
        out.append("  actions " + " ".join(str(a) for a in agent.actions))
        if agent.noop is not None:
            out.append(f"  noop {agent.actions[agent.noop]}")
        if agent.goal_candidates:
            out.append("  goals " + " ".join(labels[g] for g in agent.goal_candidates))
        for a in range(agent.n_actions):
            out.append(f"  cost {agent.actions[a]} {_fmt(agent.action_cost[a])}")
        for s in range(agent.n_states):
            for a in range(agent.n_actions):
                row = agent.transition[s, a]
                nz = np.nonzero(row > 0.0)[0]
                if len(nz) == 1 and nz[0] == s and abs(row[s] - 1.0) <= 1e-15:
                    continue  # the implicit stay-in-place default
                cells = " ".join(f"{labels[t]} {_fmt(row[t])}" for t in nz)
                out.append(f"  trans {labels[s]} {agent.actions[a]} : {cells}")
    pairs = [] if m.goal is None else [f"({lbl1[i]},{lbl2[j]})" for i, j in np.argwhere(m.goal)]
    if pairs:
        out.append("")
        out.append("goal_pairs " + " ".join(pairs))
    return "\n".join(out) + "\n"

