"""Semi-Lagrangian DG Vlasov-Poisson solver on adaptively refined velocity meshes."""

from .driver import RunResult, SimConfig, Simulation, fit_damping_rate, run
from .vmesh import ip_count
from .vsweep import advect_velocity

__all__ = [
    "RunResult",
    "SimConfig",
    "Simulation",
    "advect_velocity",
    "fit_damping_rate",
    "ip_count",
    "run",
]
