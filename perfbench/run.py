"""Run one workload of the depthlab benchmark and print its result.

    python3 perfbench/run.py --workload train_oracle --seed 1 --seconds 50 --trace 0

Run from anywhere; the program is imported from the `src/` directory next to
this one. The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
the per-layer metrics with `--trace 1`. Working files go to `.perfbench_runs/`
at the repository root and are removed at exit; a traced run leaves its trace
there. Without `src/depthlab` the run exits with status 2 and prints no result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads: on 2 vCPUs a second OpenBLAS
# thread made no operation faster (README), and the benchmark stays a single
# thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train_oracle", "decode_routed")


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class SetupSampler:
    """Set-up samples, each the wall time from starting a fresh interpreter
    until it has imported the program, built the workload's inputs in
    `workdir` and made one warm-up call (`workload.set_up`).

    Bytecode for everything the interpreter imports is cached in `workdir`
    (PYTHONPYCACHEPREFIX) by one untimed start, so every timed sample reads
    the same compiled modules, whatever `__pycache__` directories the
    checkout holds."""

    def __init__(self, src: Path, name: str, seed: int, workdir: Path):
        bench = Path(__file__).resolve().parent
        self.argv = [sys.executable, "-c", (
            f"import sys; sys.path[:0] = [{str(src)!r}, {str(bench)!r}]; from pathlib import Path; import workload; "
            f"workload.set_up({name!r}, {seed}, Path({str(workdir / 'inputs')!r})); print('ready', flush=True)"
        )]
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env["PYTHONPYCACHEPREFIX"] = str(workdir / "pycache")
        self()  # compiles into the prefix

    def __call__(self) -> float:
        start = time.perf_counter()
        with subprocess.Popen(self.argv, env=self.env, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            seconds = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or line != "ready\n":
            raise RuntimeError(f"set-up sample exited with {proc.returncode}")
        return seconds


def main(argv=None) -> int:
    args = _args(argv)
    src = ROOT / "src"
    if not (src / "depthlab" / "__init__.py").is_file():
        print(f"error: no depthlab sources under {src}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
    sys.path.insert(0, str(src))
    import depthlab

    if Path(depthlab.__file__).resolve().parent != (src / "depthlab").resolve():
        print(f"error: imported depthlab from {depthlab.__file__}, not {src}", file=sys.stderr)
        return 2
    import workload

    workdir = ROOT / ".perfbench_runs" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    setup_dir = workdir.with_name(workdir.name + "-setup")
    try:
        sampler = None if args.trace else SetupSampler(src, args.workload, args.seed, setup_dir)
        result = workload.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir, sampler)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(setup_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
