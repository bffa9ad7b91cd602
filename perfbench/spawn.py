"""Launcher for the timed children, so that each child's peak RSS is its own.

On Linux, exec records the RSS high-water mark of the address space it
replaces into the new program's ru_maxrss; after a vfork that is the
parent's. A child started directly by run.py, which grows to hundreds
of MB while it writes corpora and checks outputs, would report at least the
peak of run.py. run.py therefore starts its children through this
process, which imports only the standard library and stays small.

Protocol: one JSON request per stdin line,
{"argv", "env", "cwd", "stdout", "timeout"}, answered by one JSON line,
{"exit_code", "wall_s", "cpu_s", "maxrss_kb"}. The child's stderr goes to
the stdout path with the suffix ".err".
"""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path


def run_child(argv, env, cwd, stdout_path, timeout) -> dict:
    """Run one child to completion and time it from spawn to exit.

    Its rusage comes from os.wait4 on its own pid: RUSAGE_CHILDREN would
    report the largest RSS of any child so far, not this one's.
    """
    stdout_path = Path(stdout_path)
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=err)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit_code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
    }


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        reply = run_child(request["argv"], request["env"], request["cwd"], request["stdout"], request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
