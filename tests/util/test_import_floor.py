"""What a worker process pays before it does anything: the import floor."""

from __future__ import annotations

import subprocess
import sys


def test_store_workers_import_without_scipy_or_networkx():
    # package __init__ files re-export lazily (repro.util.lazy), so the
    # store layer does not import core.system's scientific stack — what
    # every spawned worker and ``repro --help`` used to pay (80 -> 34 MiB)
    code = (
        "import sys, repro.store.workers; "
        "print(sorted(m for m in ('scipy', 'networkx') if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_lazy_packages_still_export_their_names():
    import repro
    import repro.core
    import repro.geo

    for package in (repro, repro.core, repro.geo):
        for name in package.__all__:
            assert getattr(package, name) is not None, (package.__name__, name)
        assert set(package.__all__) <= set(dir(package))
    from repro import ViewMapSystem  # noqa: F401  (the documented import)
