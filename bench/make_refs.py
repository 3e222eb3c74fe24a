"""Write the reference outputs that bench/run.py checks every request against.

    PYTHONPATH=src python3 bench/make_refs.py

Runs each workload's request for every field set and stores the CSV header and
rows (not the '# key = value' lines) gzip-compressed in bench/ref.  A field
set whose request does not exit 0 is an error.  Regenerate only when a change
is meant to move the outputs, and say so where the change is described.
"""

import gzip
import sys

import xyquench.cli as cli

from run import ROOT, VARIANTS, WORK, WORKLOADS, data_lines, reference_path, workload_argv


def main() -> int:
    (ROOT / WORK).mkdir(parents=True, exist_ok=True)
    out = ROOT / WORK / "reference.csv"
    for workload in WORKLOADS:
        for variant in range(VARIANTS):
            argv = workload_argv(workload, variant) + ["--workers", "1", "--out", str(out)]
            code = cli.main(argv)
            if code != 0:
                print(f"{workload} field set {variant}: exit code {code}", file=sys.stderr)
                return 1
            text = "\n".join(data_lines(out.read_text())) + "\n"
            reference_path(workload, variant).write_bytes(gzip.compress(text.encode(), mtime=0))
            print(f"{reference_path(workload, variant).name}: {text.count(chr(10)) - 1} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
