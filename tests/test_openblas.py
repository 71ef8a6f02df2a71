"""The OpenBLAS park: ``import ledgerflow`` sets ``OPENBLAS_THREAD_TIMEOUT``.

OpenBLAS reads the variable once, when it loads, so every check runs in a
fresh interpreter: this test process imported numpy long ago. An idle
OpenBLAS worker spins for 2**28 cycles by default; numpy's and scipy's
copies each start a pool, and numpy's spins again after ``pearson_r``'s
BLAS calls. The CPU checks need a second CPU for a worker to spin on.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import economy_ledger

ROOT = Path(__file__).resolve().parent.parent

# CPU seconds of the whole process (every thread), from inside it.
_CPU = (
    "import resource\n"
    "def cpu():\n"
    "    usage = resource.getrusage(resource.RUSAGE_SELF)\n"
    "    return usage.ru_utime + usage.ru_stime\n"
)

two_cpus = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2 if hasattr(os, "sched_getaffinity") else True,
    reason="an idle OpenBLAS worker spins only beside the main thread",
)


def _python(script: str, tmp_path, **env: str) -> str:
    """The last stdout line of ``script`` in a fresh interpreter, run with
    ``env`` over this process's environment less ``OPENBLAS_THREAD_TIMEOUT``."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path, env={**base, "PYTHONPATH": path, **env},
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1]


@pytest.mark.parametrize("given,expected", [(None, "4"), ("7", "7")])
def test_import_sets_the_thread_timeout_unless_the_caller_did(tmp_path, given, expected):
    env = {} if given is None else {"OPENBLAS_THREAD_TIMEOUT": given}
    script = "import os, ledgerflow\nprint(os.environ['OPENBLAS_THREAD_TIMEOUT'])\n"
    assert _python(script, tmp_path, **env) == expected


@two_cpus
def test_no_cpu_burned_while_idle_after_pearson_r(tmp_path):
    # Unparked, numpy's worker spun for about 0.13 s of this sleep on a
    # 2-vCPU host.
    script = _CPU + (
        "import time\n"
        "from ledgerflow.degrees import pearson_r\n"
        "import numpy as np  # after ledgerflow, or numpy's OpenBLAS is not parked\n"
        "time.sleep(0.5)\n"
        "rng = np.random.default_rng(0)\n"
        "pearson_r(rng.random(50_000), rng.random(50_000))\n"
        "start = cpu()\n"
        "time.sleep(0.3)\n"
        "print(cpu() - start)\n"
    )
    assert float(_python(script, tmp_path)) < 0.03


@two_cpus
def test_importing_the_cli_burns_no_cpu_beyond_its_wall_time(tmp_path):
    # Unparked, scipy's pool spun for 0.18-0.26 s beyond the import's wall
    # time on a 2-vCPU host.
    script = _CPU + (
        "import time\n"
        "wall, start = time.perf_counter(), cpu()\n"
        "import ledgerflow.cli\n"
        "print((cpu() - start) - (time.perf_counter() - wall))\n"
    )
    assert float(_python(script, tmp_path)) < 0.08


def test_ingest_bundle_does_not_depend_on_the_thread_timeout(tmp_path):
    ledger = tmp_path / "economy.csv"
    ledger.write_text(economy_ledger(4000, 3), encoding="utf-8")
    bundles = []
    for timeout in (None, "28"):  # 28 is OpenBLAS's own spin, 2**28 cycles
        out = tmp_path / f"out-{timeout}"
        script = (
            "import ledgerflow.cli as cli\n"
            f"print(cli.main(['ingest', {str(ledger)!r}, '--output', {str(out)!r}]))\n"
        )
        env = {} if timeout is None else {"OPENBLAS_THREAD_TIMEOUT": timeout}
        assert _python(script, tmp_path, **env) == "0"
        bundles.append({path.name: path.read_bytes() for path in sorted(out.iterdir())
                        if path.name != "manifest.json"})
    assert "degree_stats.json" in bundles[0]
    assert bundles[0] == bundles[1]
