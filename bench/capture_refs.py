"""Capture the reference output of every pool entry of every workload.

Usage, from the root of a source checkout: python3 bench/capture_refs.py [WORKLOAD...]

Run it only at a commit whose outputs are known to be right: the benchmark
fails every op whose output differs from these references.
"""

import json
import shutil
import sys

import run


def main(names):
    run._use_checkout_source()
    from workloads import REFS, WORKLOADS

    REFS.mkdir(exist_ok=True)
    for name in names or WORKLOADS:
        workload = WORKLOADS[name]
        workdir = run.OUT / f"capture-{name}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            outputs = {str(seed): workload.canonical(workload.run_op(workload.make_input(seed, workdir)))
                       for seed in workload.pool_seeds}
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        with open(REFS / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "commit": run._commit(), "outputs": outputs}, fh, indent=1)
            fh.write("\n")
        print(f"{name}: {len(outputs)} references")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
