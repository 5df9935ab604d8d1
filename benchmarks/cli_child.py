"""`python -m quatsym ARGS...` that reports its own peak resident size.

    python3 benchmarks/cli_child.py FD ARGS...

runs the package's __main__ as `-m` does and, at exit, writes the
process's peak resident size in kB to file descriptor FD.  The worker
cannot use ru_maxrss for this: Linux carries a parent's resident size at
fork across exec into the child's maxrss, so RUSAGE_CHILDREN reads at
least the worker's own size.  VmHWM belongs to the address space, which
exec replaces, so it counts the child alone.
"""
import atexit
import os
import resource
import runpy
import sys


def peak_rss_kb() -> int:
    """Peak resident size of this process's address space, in kB."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    fd, args = int(sys.argv[1]), sys.argv[2:]

    def report() -> None:
        os.write(fd, str(peak_rss_kb()).encode())

    atexit.register(report)
    sys.argv = ["quatsym", *args]
    runpy.run_module("quatsym", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
