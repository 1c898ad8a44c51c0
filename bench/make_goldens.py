"""Capture the CLI goldens: run every CLI example once and store what it
produced in bench/goldens/<name>.txt.

    python3 bench/make_goldens.py

The goldens pin the CLI's output byte-for-byte, so regenerate them only when
a change to that output is intended.
"""

import workloads


def main():
    workloads.CLI_DIR.mkdir(parents=True, exist_ok=True)
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    for name, line in workloads.CLI_EXAMPLES:
        argv = line.split()
        proc = workloads.run_cli(argv)
        if proc.returncode != 0 or proc.stderr:
            raise SystemExit("%s failed: %s" % (name, proc.stderr.decode()))
        (workloads.GOLDEN_DIR / (name + ".txt")).write_bytes(workloads.cli_output(argv, proc))
        print(name)


if __name__ == "__main__":
    main()
