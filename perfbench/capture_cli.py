"""Capture the expected output of every command the cli workload can draw.

    python3 perfbench/capture_cli.py

Runs each entry of ``workloads.cli_pools()`` as ``python -m cfdeform`` (the
README commands in every format, and the error paths) and writes the exit
code and the SHA-256 of stdout to ``cli_expected.json``.  The benchmark then
requires byte-identical stdout.  Rerun only when the CLI's output is meant
to change.
"""

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    ok, errors = workloads.cli_pools()
    commands = [(0, argv + ["--format", fmt]) for pool in ok.values() for argv in pool
                for fmt in workloads.CLI_FORMATS]
    commands += [(workloads.ERROR_EXIT[name], argv)
                 for name, pool in errors.items() for argv in pool]
    env = workloads.child_env(ROOT)
    expected = {}
    for code, argv in commands:
        res = workloads.run_cli([sys.executable, "-m", "cfdeform", *argv], ROOT, env)
        if b"Traceback" in res.stderr or res.code != code:
            print(f"{argv}: exit {res.code}, expected {code}", file=sys.stderr)
            sys.stderr.write(res.stderr.decode(errors="replace"))
            return 1
        expected[workloads.cli_key(argv)] = {
            "exit": res.code,
            "stdout_sha256": hashlib.sha256(res.stdout).hexdigest(),
            "stdout_bytes": len(res.stdout),
        }
    with open(workloads.CLI_EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"captured {len(expected)} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
