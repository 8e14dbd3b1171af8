"""Set-up in a fresh interpreter: ``run.py`` times this script, which
imports the driver stack and prepares one workload's inputs in a work
directory.  Usage: ``bench_prepare.py WORKLOAD_JSON SEED WORKDIR``,
where ``WORKLOAD_JSON`` holds the fields of a ``Workload``."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bench_workloads import Workload, prepare  # noqa: E402

if __name__ == "__main__":
    fields, seed, workdir = sys.argv[1:]
    fields = json.loads(fields)
    workload = Workload(**{**fields, "traces": tuple(fields["traces"])})
    prepare(workload, int(seed), Path(workdir))
