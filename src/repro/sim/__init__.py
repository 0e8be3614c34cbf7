"""Simulation layer: drives VehicleAgents over traces through a channel.

The full-fidelity runner (:mod:`repro.sim.runner`) exchanges real view
digests between agents second by second and produces genuine VPs with
Bloom filters and hash chains — used for viewmap-structure experiments on
short windows.  Contact-interval extraction (:mod:`repro.sim.contacts`)
works directly on traces for Fig. 22c.  For ingest *load* experiments,
:mod:`repro.sim.stream` replaces the whole-corpus materialization with a
constant-memory generator of wire-ready upload frames
(:func:`iter_minute_frames`) that scales to million-vehicle bursts.
"""

from repro.util.lazy import lazy_exports

#: public name -> defining submodule, imported on first access (PEP 562):
#: ``repro.sim.stream`` must not cost ``runner``'s and ``contacts``' scipy
_EXPORTS = {
    "MinuteFrame": ".stream",
    "SimulationResult": ".runner",
    "ViewMapSimulation": ".runner",
    "run_viewmap_simulation": ".runner",
    "contact_intervals": ".contacts",
    "iter_minute_frames": ".stream",
    "iter_minute_vps": ".stream",
    "iter_upload_payloads": ".stream",
    "mean_contact_time": ".contacts",
    "stream_convoy_vps": ".stream",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
