"""One benchmark process: import ledgerflow, optionally trace, run one job.

Usage: ``python3 perfbench/child.py JOB_JSON`` where the job names the
checkout ``root``, a ``report`` path, and a ``kind``:

* ``probe``: import ``ledgerflow.cli`` and stop (set-up time only);
* ``pipeline``: ``ledgerflow.pipeline.run_pipeline`` on ``ledger`` into
  ``output`` with ``stages`` and ``seed``;
* ``cli``: ``ledgerflow.cli.main(argv)``.

With ``trace`` set, the layer functions are wrapped before the job runs.
The report holds the CLOCK_MONOTONIC time at which ``ledgerflow.cli`` was
imported and the spans of a traced run.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main() -> int:
    job = json.loads(sys.argv[1])
    src = (Path(job["root"]) / "src").resolve()
    sys.path.insert(0, str(src))
    import ledgerflow.cli as cli

    imported = time.monotonic()
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"ledgerflow imported from {cli.__file__}, not from {src}")

    tracer = None
    if job.get("trace"):
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    code = 0
    if job["kind"] == "cli":
        code = cli.main(job["argv"])
    elif job["kind"] == "pipeline":
        from ledgerflow import pipeline

        config = pipeline.PipelineConfig(
            input_path=Path(job["ledger"]),
            output_dir=Path(job["output"]),
            master_seed=job["seed"],
        )
        pipeline.run_pipeline(config, stages=frozenset(job["stages"]))
    elif job["kind"] != "probe":
        raise SystemExit(f"unknown job kind {job['kind']!r}")

    report = {"imported": imported, "spans": tracer.spans if tracer else []}
    Path(job["report"]).write_text(json.dumps(report), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
