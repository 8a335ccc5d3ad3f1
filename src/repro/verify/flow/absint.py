"""Forward dataflow solver for the flow analyses.

:func:`solve_forward` is a worklist fixpoint solver over
:class:`~repro.verify.flow.cfg.CFG` blocks; the taint determinism
analysis (:mod:`repro.verify.flow.taint`) supplies the state lattice
through its callbacks.  Nothing here knows about protocols or
workloads.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.verify.flow.cfg import CFG, Unit

__all__ = ["solve_forward"]


def solve_forward(
    cfg: CFG,
    init: object,
    transfer: Callable[[Unit, object], object],
    join: Callable[[object, object], object],
    equals: Callable[[object, object], bool],
    max_passes: int = 64,
) -> Tuple[Dict[int, object], Dict[int, object]]:
    """Forward fixpoint over ``cfg``.  Returns (in, out) block states.

    ``transfer`` folds one :class:`Unit` into a state; states must be
    treated as immutable by the callback (return a new one).
    """
    order = cfg.rpo()
    in_states: Dict[int, object] = {}
    out_states: Dict[int, object] = {}
    for _ in range(max_passes):
        changed = False
        for bid in order:
            block = cfg.block(bid)
            if bid == cfg.entry:
                state = init
            else:
                preds = [out_states[p] for p in block.preds
                         if p in out_states]
                if not preds:
                    continue
                state = preds[0]
                for other in preds[1:]:
                    state = join(state, other)
            in_states[bid] = state
            for unit in block.units:
                state = transfer(unit, state)
            old = out_states.get(bid)
            if old is None or not equals(old, state):
                out_states[bid] = state
                changed = True
        if not changed:
            return in_states, out_states
    return in_states, out_states  # widened by the pass cap
