"""REPRO-R001 fixture: a ``Process(target=)`` worker loop writing
module state the parent reads.

``_worker_loop`` is the target of a hand-built worker process, so it
runs only in the child: its writes land in the child's copy of
``_SEEN``, and ``jobs_seen`` (parent-side) reads the import-time
empty list.  The good loop replies on its pipe instead.
"""

import multiprocessing

_SEEN = []


def _worker_loop(conn):
    while True:
        job = conn.recv()
        if job is None:
            break
        _SEEN.append(job)  # LINT-BAD: REPRO-R001
        conn.send(job * 2)


def _good_loop(conn):
    while True:
        job = conn.recv()
        if job is None:
            break
        conn.send(job * 2)  # LINT-OK: data rides the pipe


def start_workers():
    ctx = multiprocessing.get_context()
    bad = ctx.Process(target=_worker_loop, args=(None,), daemon=True)
    good = multiprocessing.Process(target=_good_loop, args=(None,))
    return bad, good


def jobs_seen():
    # parent-side read: sees the import-time empty list.
    return list(_SEEN)
