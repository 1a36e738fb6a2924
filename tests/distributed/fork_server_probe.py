"""Subprocess probe for the shard workers' fork server.

Run by ``test_executors.py::TestForkServer`` (no ``test_`` prefix, so
pytest does not collect it).  It is launched the way perfbench launches
the library: with no ``PYTHONPATH``, the ``src`` directory given on the
command line is put on ``sys.path`` at run time.  Nothing from repro is
imported at module level, and this script is every worker's main
module, so ``PRELOADED`` records what a worker already held before its
target, factory or payload arrived: what the fork server preloaded.

    python fork_server_probe.py SRC preload        # two 2-worker executors
    python fork_server_probe.py SRC forked         # ... then one in a forked child
    python fork_server_probe.py SRC sharded exit   # a sharded backend, then exit
    python fork_server_probe.py SRC sharded wait   # ... then wait to be killed

Each mode prints one JSON line.
"""

import json
import os
import sys

PRELOADED = sorted(
    name for name in ("numpy", "repro.distributed.sharded") if name in sys.modules
)


class Probe:
    def __init__(self, payload):
        self.payload = payload

    def report(self):
        return {"pid": os.getpid(), "ppid": os.getppid(), "preloaded": PRELOADED}


def probe_factory(payload):
    return Probe(payload)


def parent_pid(pid):
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("PPid:"):
                return int(line.split()[1])
    raise RuntimeError(f"no PPid line for {pid}")


def preload():
    from repro.runner.executors import ProcessShardExecutor

    reports = []
    for _ in range(2):
        with ProcessShardExecutor(2) as executor:
            executor.start(probe_factory, [0, 1])
            reports.extend(executor.broadcast("report"))
    print(json.dumps({"pid": os.getpid(), "workers": reports}), flush=True)


def forked():
    """Start workers, then start more in a forked child, as an
    orchestrator pool worker forked from this process would."""
    import multiprocessing

    from repro.runner.executors import ProcessShardExecutor

    def child(queue):
        try:
            with ProcessShardExecutor(1) as executor:
                executor.start(probe_factory, [0])
                queue.put(dict(executor.call(0, "report"), parent=os.getpid()))
        except Exception as exc:  # reported to the test, not hung on
            queue.put({"error": repr(exc)})

    with ProcessShardExecutor(1) as executor:
        executor.start(probe_factory, [0])
        first = executor.call(0, "report")
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    process = context.Process(target=child, args=(queue,))
    process.start()
    second = queue.get(timeout=60)
    process.join(timeout=60)
    print(json.dumps({"first": first, "forked": second}), flush=True)


def sharded(then):
    from repro.distributed.sharded import ShardedBackend
    from repro.instances.random_instances import random_uniform_instance
    from repro.power.oblivious import SquareRootPower

    instance = random_uniform_instance(64, rng=0)
    backend = ShardedBackend.build(
        instance, SquareRootPower()(instance), epsilon=0.05, workers=2,
        executor="process",
    )
    workers = [health["pid"] for health in backend.worker_health()]
    servers = sorted({parent_pid(pid) for pid in workers})
    print(json.dumps({"fork_servers": servers, "workers": workers}), flush=True)
    if then == "wait":
        sys.stdin.read()  # mid-session until killed


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    if sys.argv[2] == "preload":
        preload()
    elif sys.argv[2] == "forked":
        forked()
    else:
        sharded(sys.argv[3])
