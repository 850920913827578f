#!/usr/bin/env python3
"""Run the jobs of .github/workflows/ci.yml on this machine.

    python3 scripts/ci_local.py --list            # every job and its steps
    python3 scripts/ci_local.py --job tier1       # run one job's run: steps

A job runs its `run:` steps in order under bash (`-eo pipefail`, as GitHub
runs them), from the repository root, with the workflow's, the job's and
the step's `env` merged in that order. `uses:` steps (checkout, toolchain,
cache) are skipped: the checkout is the working tree and the toolchain is
whatever `cargo` is on PATH. `RUNNER_TEMP` points at a fresh temporary
directory. The job stops at the first step that exits non-zero, and the
script exits with that step's status.
"""

import argparse
import os
import subprocess
import sys
import tempfile
import time

import yaml

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKFLOW = os.path.join(ROOT, ".github", "workflows", "ci.yml")


def load():
    with open(WORKFLOW) as f:
        return yaml.safe_load(f)


def step_label(step, index):
    if "name" in step:
        return step["name"]
    if "uses" in step:
        return "uses: " + step["uses"]
    return "step %d" % index


def str_env(env):
    return {str(k): str(v) for k, v in (env or {}).items()}


def list_jobs(workflow):
    jobs = workflow["jobs"]
    steps = 0
    for job_id, job in jobs.items():
        print("%s: %s" % (job_id, job.get("name", job_id)))
        for i, step in enumerate(job.get("steps", []), 1):
            kind = "run " if "run" in step else "skip"
            print("  %2d. [%s] %s" % (i, kind, step_label(step, i)))
            steps += 1
    print("%d jobs, %d steps" % (len(jobs), steps))


def run_job(workflow, job_id):
    jobs = workflow["jobs"]
    if job_id not in jobs:
        sys.exit("no job %r; --list shows the jobs" % job_id)
    job = jobs[job_id]
    with tempfile.TemporaryDirectory(prefix="ci-local-") as runner_temp:
        base = dict(os.environ)
        base["RUNNER_TEMP"] = runner_temp
        base.update(str_env(workflow.get("env")))
        base.update(str_env(job.get("env")))
        for i, step in enumerate(job.get("steps", []), 1):
            label = step_label(step, i)
            if "run" not in step:
                print("== [%s] %d. %s: skipped" % (job_id, i, label), flush=True)
                continue
            env = dict(base)
            env.update(str_env(step.get("env")))
            print("== [%s] %d. %s" % (job_id, i, label), flush=True)
            start = time.time()
            status = subprocess.call(
                ["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c", step["run"]],
                cwd=ROOT,
                env=env,
            )
            took = time.time() - start
            if status != 0:
                print("== [%s] %d. %s: FAILED (exit %d, %.0f s)" % (job_id, i, label, status, took))
                return status
            print("== [%s] %d. %s: ok (%.0f s)" % (job_id, i, label, took), flush=True)
    print("== [%s] passed" % job_id)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--list", action="store_true", help="print the jobs and their steps")
    group.add_argument("--job", metavar="ID", help="run the run: steps of job ID")
    args = parser.parse_args()
    workflow = load()
    if args.list:
        list_jobs(workflow)
        return 0
    return run_job(workflow, args.job)


if __name__ == "__main__":
    sys.exit(main())
