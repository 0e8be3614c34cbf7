"""repro — a full reproduction of ViewMap (NSDI 2017).

ViewMap is an automated public-service system for sharing private
in-vehicle dashcam videos under anonymity: videos are represented by
compact *view profiles* (VPs) cross-linked over DSRC line-of-sight
contacts, verified with TrustRank over *viewmaps*, solicited by anonymous
identifier, and rewarded with blind-signature virtual cash.  Location
privacy in the VP database is protected by decoy *guard VPs*.

Package map:

* :mod:`repro.core` — the paper's contribution (VDs, VPs, guards,
  viewmaps, verification, solicitation, rewarding, the system facade);
* :mod:`repro.store` — VP storage behind the database facade: one
  class, the minute-segment log ``SegmentStore``, whose placement is
  its path — anonymous segments (volatile, the default) or named files
  that survive authority restarts:
  ``ViewMapSystem(store=SegmentStore(path))``, or the CLI's
  ``--store-path`` option;
* :mod:`repro.crypto` — hashes, Bloom filters, RSA blind signatures;
* :mod:`repro.geo` / :mod:`repro.radio` / :mod:`repro.mobility` /
  :mod:`repro.sim` — the road, radio and traffic substrates;
* :mod:`repro.privacy` / :mod:`repro.attacks` — the tracking adversary
  and fake-VP attack models;
* :mod:`repro.vision` — realtime licence-plate blurring;
* :mod:`repro.net` — onion-routed anonymous client/server;
* :mod:`repro.analysis` — drivers for every table and figure.
"""

from repro.util.lazy import lazy_exports

__version__ = "1.1.0"

#: public name -> defining module.  Resolved on first attribute access
#: (PEP 562): ``from repro import ViewMapSystem`` works as before, and
#: ``import repro.store`` — what ``repro --help`` pays (numpy alone) —
#: imports no ``core.system``.
_EXPORTS = {
    "ViewMapSystem": "repro.core.system",
    "Investigation": "repro.core.system",
    "VehicleAgent": "repro.core.vehicle",
    "RecordedVideo": "repro.core.vehicle",
    "ViewDigest": "repro.core.viewdigest",
    "VDGenerator": "repro.core.viewdigest",
    "ViewProfile": "repro.core.viewprofile",
    "build_view_profile": "repro.core.viewprofile",
    "ViewMapGraph": "repro.core.viewmap",
    "build_viewmap": "repro.core.viewmap",
    "mutual_linkage": "repro.core.viewmap",
    "VerificationResult": "repro.core.verification",
    "trustrank": "repro.core.verification",
    "verify_viewmap": "repro.core.verification",
    "Point": "repro.geo.geometry",
    "Rect": "repro.geo.geometry",
    "SegmentStore": "repro.store",
}

__all__ = [*_EXPORTS, "__version__"]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
