"""Host-speed probe: a fixed kernel of the benchmark's own, timed next to
every command.

The benchmark runs on shared virtual machines whose speed drifts by up to
2x over minutes, with process CPU time equal to wall time, so a slow period
stretches every command of a run alike, fastest rounds included. The probe
is timed just before and just after each command; the command's time over
the mean of those two probe times is a ratio in which the host's speed at
that moment cancels. ``REFERENCE_S`` turns the ratio back into seconds: a
normalized time is the command's time on a host where the probe takes
``REFERENCE_S``.

The kernel mixes what medsql spends its time on: regular-expression
tokenizing of SQL-like text, JSON encoding and decoding, a pure-Python
dynamic programme like the LCS of value recovery, and SQLite scans of an
in-memory table with grouping. It uses only its own data, built once in
the constructor, and touches no file and no medsql code, so a change to
medsql cannot change the work it does. It runs in the workload process
between commands, when no medsql code runs; a command that left threads
or processes working after it returned would slow the probe as well, and
the normalization would hide that much of its cost. medsql at the default
``--jobs 1`` leaves none.
"""

from __future__ import annotations

import json
import random
import re
import sqlite3
import time

# The probe's median time, rounded, on the reference host (a shared
# two-vCPU Intel Xeon virtual machine at 2.0 GHz, Python 3.11.7, SQLite
# 3.40.1). Fixed: changing it rescales every normalized time.
REFERENCE_S = 0.016

_TOKEN = re.compile(r"\s*(?:(\d+\.?\d*)|(\"(?:[^\"]|\"\")*\")|([A-Za-z_][A-Za-z0-9_.]*)|(.))")
_WORDS = ("alpha", "beta", "gamma", "delta", "lab", "drug", "count", "where")


def _lcs(a: str, b: str) -> int:
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b):
            cur.append(prev[j] + 1 if x == y else max(prev[j + 1], cur[j]))
        prev = cur
    return prev[-1]


class Probe:
    """Callable that runs the kernel once and returns its seconds."""

    def __init__(self):
        r = random.Random("medsql-bench:probe")
        w = lambda: r.choice(_WORDS)
        self.texts = [f'SELECT COUNT(DISTINCT T.{w()}) FROM T WHERE T.{w()} = "{w()} {r.randrange(1000)}" '
                      f"AND T.X > {r.randrange(99)}" for _ in range(150)]
        self.pairs = [(" ".join(w() for _ in range(5)), " ".join(w() for _ in range(5))) for _ in range(12)]
        self.db = sqlite3.connect(":memory:")
        self.db.execute("CREATE TABLE t (a INTEGER, b TEXT, c TEXT)")
        self.db.executemany("INSERT INTO t VALUES (?, ?, ?)",
                            [(r.randrange(5000), w() + str(r.randrange(300)), w()) for _ in range(10000)])
        self.db.commit()
        for _ in range(3):  # compile the regex and statements, fill the caches
            self()

    def __call__(self) -> float:
        start = time.perf_counter()
        out = []
        for text in self.texts:
            tokens = [m.group(0).strip() for m in _TOKEN.finditer(text)]
            out.append({"t": tokens, "n": len(tokens), "u": text.upper()})
        json.loads(json.dumps(out))
        for a, b in self.pairs:
            _lcs(a, b)
        for k in range(2):
            self.db.execute("SELECT c, COUNT(DISTINCT a) FROM t WHERE b LIKE ? GROUP BY c", (f"%{k}%",)).fetchall()
        return time.perf_counter() - start

    def close(self) -> None:
        self.db.close()
