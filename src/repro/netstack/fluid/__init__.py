"""Time-stepped fluid-flow engine for bulk TCP/UDP traffic.

Per-packet simulation of saturating gigabit flows is intractable at the
paper's scale, so bulk transfers use the standard fluid approximation: each
flow carries a congestion window evolved by AIMD (Reno) or the Cubic window
function, its offered rate is ``min(app demand, cwnd/RTT)``, and link
capacities are divided among competing flows by RTT-weighted max-min —
the equilibrium real TCP converges to.  Loss events (from buffer overflow at
saturated links, or injected by netem) trigger multiplicative back-off, and
the whole system is integrated with a fixed step (default 10 ms).
"""

from repro._lazy import lazy_exports

# The integrator and the flow model load on first use: an engine with no
# bulk flow never builds a FluidFlow, and one that never solves never
# loads the fair-share solver.
_LAZY = {
    "flow": ("FluidFlow",),
    "engine": ("FluidEngine", "ConstraintProvider", "GroundTruthConstraints",
               "ShapedConstraints"),
}
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)

__all__ = [
    "FluidFlow",
    "FluidEngine",
    "ConstraintProvider",
    "GroundTruthConstraints",
    "ShapedConstraints",
]
