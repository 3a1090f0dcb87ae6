"""Record the reference outputs that the benchmark's checks compare against.

    python3 perfbench/record_refs.py

Runs every item kind of every workload on each pool index and writes the
checked output values to perfbench/references.json.  Re-record only when
the program's mathematics changes on purpose; a change that claims the same
outputs must pass against the existing file.
"""

import json
import sys

import run


def main():
    refs = {}
    for name in run.WORKLOAD_NAMES:
        workload, _ = run.set_up(name)
        import workloads  # importable once set_up has put src/ on the path
        table = {}
        for kind in dict.fromkeys(workload.cycle):
            for j in range(workloads.POOL):
                out = workload.run(kind, workload.make_input(kind, j))
                table[f"{kind}/{j}"] = workload.values(kind, out)
        refs[name] = table
        print(f"{name}: {len(table)} references", file=sys.stderr)
    run.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
