"""The bit-for-bit sweep script runs on the ropcalc under test and prints what it promises."""

import hashlib
import os
import re
import subprocess
import sys

import ropcalc

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bitsweep.py")


def test_bitsweep_digest_is_that_of_its_dumped_records():
    site = os.path.dirname(os.path.dirname(ropcalc.__file__))
    paths = [site, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    out = subprocess.run([sys.executable, SCRIPT, "--calls", "300", "--seed", "1", "--dump"],
                         capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    *records, last = out.stdout.splitlines()
    match = re.fullmatch(r"(\d+) records, sha256 ([0-9a-f]{64})", last)
    assert match, last
    # 300 calls, 75 at the edges, 1 + 3 x 30 solves, 4 x 22 table rows, and 11 fixed and
    # 3 seeded CLI runs in 3 formats each
    assert int(match[1]) == len(records) == 300 + 75 + 1 + 90 + 88 + 3 * (11 + 3)
    assert match[2] == hashlib.sha256("".join(r + "\n" for r in records).encode("utf-8")).hexdigest()
