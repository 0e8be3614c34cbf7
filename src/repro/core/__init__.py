"""The paper's primary contribution: view profiles, viewmaps, verification.

Layer map (bottom to top):

* :mod:`repro.core.viewdigest` — per-second VDs, 72-byte wire format,
  cascaded hashing (Section 5.1.1).
* :mod:`repro.core.neighbors` — receiver-side VD validation and the
  first/last-VD-per-neighbour table.
* :mod:`repro.core.viewprofile` — 1-minute VPs: 60 VDs + neighbour Bloom
  filter; mutual-linkage queries.
* :mod:`repro.core.guard` — guard VPs for path obfuscation (Section 5.1.2).
* :mod:`repro.core.vehicle` — the on-board agent gluing recording, VD
  exchange, VP finalization and guard creation together.
* :mod:`repro.core.viewmap` — viewmap construction from a VP database
  (Section 5.2.1).
* :mod:`repro.core.verification` — TrustRank scoring and Algorithm 1
  (Section 5.2.2), plus the Lemma 1/2 bounds of Section 6.3.1.
* :mod:`repro.core.solicitation` — anonymous video solicitation and
  cascaded-hash video validation (Section 5.2.3).
* :mod:`repro.core.rewarding` — untraceable rewards (Section 5.3).
* :mod:`repro.core.system` — the public-service facade tying it together.
"""

from repro.util.lazy import lazy_exports

#: public name -> defining submodule, imported on first access (PEP 562):
#: ``repro.core.viewprofile`` (30 MiB) must not cost the store, which
#: only needs the VP type, all of ``core.system`` (35 MiB, numpy only)
_EXPORTS = {
    "ViewDigest": ".viewdigest",
    "VDGenerator": ".viewdigest",
    "NeighborTable": ".neighbors",
    "NeighborRecord": ".neighbors",
    "ViewProfile": ".viewprofile",
    "build_view_profile": ".viewprofile",
    "GuardVPFactory": ".guard",
    "VehicleAgent": ".vehicle",
    "RecordedVideo": ".vehicle",
    "ViewMapGraph": ".viewmap",
    "build_viewmap": ".viewmap",
    "mutual_linkage": ".viewmap",
    "trustrank": ".verification",
    "verify_viewmap": ".verification",
    "VerificationResult": ".verification",
    "lemma1_bound": ".verification",
    "lemma2_bound": ".verification",
    "VPDatabase": ".database",
    "SolicitationBoard": ".solicitation",
    "validate_video_upload": ".solicitation",
    "RewardService": ".rewarding",
    "RewardGrant": ".rewarding",
    "ViewMapSystem": ".system",
    "Investigation": ".system",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
