#!/usr/bin/env python3
"""Build the prpbench program from the checkout's sources and run one workload.

    python3 prpbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout root; build output goes to stderr so the run's last stdout line is
its result object. Extra options (--perturb rank|matrix, ...) pass through
to the benchmark.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "prpbench"


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    the program sources the benchmark is built from."""
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()
        if sha:
            return sha
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, **quiet)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "prpbench",
         "-j", str(os.cpu_count() or 1)],
        check=True, **quiet)
    return build_dir / "prpbench"


def main():
    os.chdir(ROOT)
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"prpbench: build failed: {error}", file=sys.stderr)
        return 3
    args = [str(binary), *sys.argv[1:],
            "--golden", str(ROOT / "tests" / "data" / "golden_checksums.json"),
            "--git-sha", source_id()]
    sys.stdout.flush()
    os.execv(str(binary), args)


if __name__ == "__main__":
    sys.exit(main())
