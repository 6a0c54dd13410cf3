"""cs-nondet scaled to N workers, generated from the bundled two-worker text.

The bundled model has a `Worker[2]` family and a scheduler with one `BusyK`
state and one grant/reclaim pair per worker.  Scaling rewrites exactly those
three places; every other line of the bundled text is passed through, so the
scaled model follows the bundled one if it changes.  A rewrite that does not
match the expected two-worker text raises instead of guessing.
"""

from __future__ import annotations

import re

_FAMILY = "component Worker[2] {"
_SCHED_STATES = "states: Idle, Busy1, Busy2;"
_SCHED_TRANSITIONS = re.compile(
    r"(component Scheduler \{.*?transitions:\n)(.*?)(\n\})", re.DOTALL
)
_TWO_WORKER_TRANSITIONS = [
    "Idle - grant1 -> Busy1;",
    "Busy1 - reclaim1 -> Idle;",
    "Idle - grant2 -> Busy2;",
    "Busy2 - reclaim2 -> Idle;",
]


def _replace_once(text: str, old: str, new: str) -> str:
    if text.count(old) != 1:
        raise ValueError(f"cs-nondet text: expected exactly one {old!r}")
    return text.replace(old, new)


def scale_cs_nondet(bundled_text: str, n: int) -> str:
    """Model text of cs-nondet with `n` workers (n >= 2)."""
    if n < 2:
        raise ValueError("cs-nondet needs at least two workers")
    text = _replace_once(bundled_text, _FAMILY, f"component Worker[{n}] {{")
    busy = ", ".join(f"Busy{i}" for i in range(1, n + 1))
    text = _replace_once(text, _SCHED_STATES, f"states: Idle, {busy};")
    match = _SCHED_TRANSITIONS.search(text)
    if match is None or [l.strip() for l in match.group(2).splitlines()] != _TWO_WORKER_TRANSITIONS:
        raise ValueError("cs-nondet text: scheduler transitions are not the two-worker form")
    body = "\n".join(
        f"    Idle - grant{i} -> Busy{i};\n    Busy{i} - reclaim{i} -> Idle;"
        for i in range(1, n + 1)
    )
    return text[: match.start(2)] + body + text[match.end(2):]


def cs_nondet_properties(n: int) -> str:
    """Mutual exclusion over all n workers, and reachability of worker 1's section."""
    in_cs = ", ".join(f"Worker{i}.InCS" for i in range(1, n + 1))
    return (
        f"invariant countInState({{{in_cs}}}, <=, 1)\n"
        "reachable inState(Worker1, InCS)\n"
    )


# Closed forms for the reachable space, derived by hand rather than by the
# explorer.  A state is either "scheduler Idle" (every worker in phase Free
# at OutCS or Waiting: 2^N states) or "scheduler Busy_k" (worker k in phase
# Crit at Waiting, InCS or OutCS, the other N-1 free: 3 * 2^(N-1) states per
# k).  In an Idle state each worker has exactly one step: request from OutCS
# or admit from Waiting.  In a Busy_k state each free worker at OutCS may
# request, and worker k has exactly one step: enter, exit or release.

def expected_states(n: int) -> int:
    return 2 ** (n - 1) * (3 * n + 2)


def expected_edges(n: int) -> int:
    return n * 2 ** (n - 2) * (3 * n + 7)
