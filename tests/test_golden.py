"""Golden digests of sampled paths and of fifteen battery reports: the alarm for
kernel, check or numpy stream drift.

Each case pins the SHA-256 of ``simulate_replicas`` positions (and of the
centre-of-mass sums where tracked), little-endian int64 in C order.  The
digests come from numpy's own ``Generator`` calls (the per-replica lockstep
loop kept as ``tests._oracles.lockstep_replicas``) under numpy 2.4.6, so a
pass means the paths are bit-identical to numpy's ``integers``/``random``
sequence.  A failure means either the kernel changed the paths or numpy
changed its Philox or bounded-integer stream; both change every sampled
result and must be reported, not re-pinned silently.
"""

import hashlib
import json

import numpy as np
import pytest

from merw.ensemble import simulate_replicas
from merw.montecarlo import BATTERIES
from merw.params import ModelParams


def _digest(array):
    return hashlib.sha256(np.ascontiguousarray(array, dtype="<i8").tobytes()).hexdigest()


# (id, (d, p, q), n, snapshot times, master_seed, replicas, track_cm)
CASES = [
    ("d1-n1", (1, "3/4", "1/2"), 1, [1], 1, 5, True),
    ("d2-n2", (2, "1/2", "1/2"), 2, [1, 2], 2, 7, False),
    ("d3-n1025", (3, "3/10", "3/5"), 1025, [1, 2, 512, 1025], 3, 9, True),
    ("d2-n1026", (2, "9/10", "1/2"), 1026, [1025, 1026], 4, 11, True),
    ("d1-n3000", (1, "1/4", "1/2"), 3000, [1, 1024, 1025, 2049, 3000], 5, 13, False),
    # replica 293 meets a rejected bounded draw in its second chunk (steps 1026-2049)
    ("d2-rejection", (2, "3/4", "1/2"), 2100, [1025, 1026, 2049, 2050, 2100], 31337, 300, True),
]

GOLDEN = {
    "d1-n1": (
        "f7cbc6888bd0d4656645cb43cc33cf7dce87df01c216ba65ad010ae0e6c96717",
        "f7cbc6888bd0d4656645cb43cc33cf7dce87df01c216ba65ad010ae0e6c96717",
    ),
    "d2-n2": ("4bd29e4930579667af7df0208af21e325b5f18a61b3fd8102486f8987656a973", None),
    "d3-n1025": (
        "a503eac3ae5be8bb096c65c990778730f977cca4dcd5e069af9e7c4d3c484142",
        "8990163147076a6f21c1e7cb6b0200a17bd47469a85fa26e207af96522b6cc6c",
    ),
    "d2-n1026": (
        "83978db2431cdac8d600119b0120eb0bd875afb42c57d7f3d8af8274b8ed5c4d",
        "5a91e1f545da5c1396189899d33620e36ea5a13402c0ccde9c138c6be93e9fa0",
    ),
    "d1-n3000": ("7119aa2ca6e6aa96ffddb92cbeb9e229ab8ff794b7e4c9c980cd1fda6a9e867c", None),
    "d2-rejection": (
        "cca3c6c16139170c8788aa285582535c39e89a30c17f2b448959ea18f6867927",
        "cf66c608f5c864dfecef393a99b8ca886a742a140c6233d959eef3071155fd6c",
    ),
}


def digests(case):
    _, (d, p, q), n, times, seed, replicas, track_cm = case
    positions, cm = simulate_replicas(
        ModelParams(d, p, q), n, times, seed, replicas, track_center_of_mass=track_cm
    )
    return _digest(positions), (_digest(cm) if cm is not None else None)


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_sampled_paths_match_golden_digests(case):
    assert digests(case) == GOLDEN[case[0]]


# (id, battery, (d, p, q), n, grid, master_seed, replicas)
REPORT_CASES = [
    ("clt-d2", "clt", (2, "1/2", "1/2"), 400, (0.25, 0.5, 0.75, 1.0), 2024, 300),
    ("critical-d2", "critical", (2, "5/8", "1/2"), 400, (0.25, 0.5, 0.75, 1.0), 2025, 300),
    # q != 1/2: the first-step law reaches the reports through the mean drift
    ("clt-d2-q", "clt", (2, "1/2", "7/10"), 400, (0.25, 0.5, 0.75, 1.0), 2026, 300),
    ("cm-d1-q", "cm", (1, "1/2", 0.3), 400, (1.0,), 2027, 300),
    # the check layout: d = 1 has no cross-axis checks, d = 3 has three axis pairs and
    # increments, and the 100-fraction grid pins the order of its 4950 time pairs
    ("clt-d1", "clt", (1, "1/2", "1/2"), 400, (0.25, 0.5, 0.75, 1.0), 2028, 300),
    ("critical-d3", "critical", (3, "7/12", "1/2"), 400, (0.5, 0.75, 1.0), 2029, 300),
    ("clt-d2-grid", "clt", (2, "1/2", "1/2"), 200, tuple(k / 100 for k in range(1, 101)), 2030,
     500),
    # the ladder batteries in each branch, with a ladder median of 0 in slln-d1-zero-median,
    # and the centre of mass with its cross-axis checks
    ("slln-d2-diffusive", "slln", (2, "1/2", "1/2"), 2000, (0.01, 0.1, 0.5, 1.0), 2031, 20),
    ("slln-d1-superdiffusive", "slln", (1, "9/10", "1/2"), 2000, (0.01, 0.1, 0.5, 1.0), 2032, 20),
    ("slln-d1-zero-median", "slln", (1, "2/5", "1/2"), 2000, (1e-3, 1e-2, 1e-1, 1.0), 12, 20),
    ("superdiffusive-d1", "superdiffusive", (1, "9/10", "1/2"), 1024, (0.125, 0.25, 0.5, 1.0),
     2033, 100),
    ("superdiffusive-d2-q", "superdiffusive", (2, "9/10", "7/10"), 1024,
     (0.125, 0.25, 0.5, 1.0), 2034, 100),
    ("cm-d2", "cm", (2, "1/2", "1/2"), 400, (1.0,), 2035, 300),
    ("cm-d3", "cm", (3, "3/10", "3/5"), 400, (1.0,), 2036, 300),
    # the `grid` benchmark shape: 10 400 checks over 100 snapshots of 10^4 replicas
    ("clt-d2-grid-10k", "clt", (2, "1/2", "1/2"), 200, tuple(k / 100 for k in range(1, 101)),
     2037, 10_000),
]

#: SHA-256 of json.dumps(report.canonical_dict(), sort_keys=True), pinned before the
#: CLT and critical batteries shared one check body (the q != 1/2 cases before the
#: first-step law moved to ``urn.first_colour_law``, the check-layout cases before the
#: check body was evaluated as arrays, the ladder and centre-of-mass cases before those
#: batteries shared the ladder statistic and the array gate, the `grid` shape before check
#: records became named tuples and snapshots were projected in place); same numpy caveat
#: as above.  The eight mean-checked cases with alpha != 0 (clt-d2, critical-d2, clt-d2-q,
#: critical-d3, clt-d2-grid, cm-d2, cm-d3, clt-d2-grid-10k) were re-pinned when E[S_t] and
#: E[G_n] moved from a log-gamma ratio and a whole-horizon cumprod to one blocked scan:
#: only the `expected` and `z` of their mean checks changed (by <= 3e-13 relative, no
#: verdict flipped), and in the critical cases the increment checks' note, which had
#: called them bias-free.
GOLDEN_REPORTS = {
    "clt-d2": "6ead18fac72ea70d30762745e0dc94420be196cf46e37eed75ee404981f5acd8",
    "critical-d2": "2196b4ee57bad79a64b5ed6bfdfddc6748440df6b65fb0b9c761d98f852a4cc9",
    "clt-d2-q": "2c044bd5012c211917af968a794617339d3143926d0c126def43c664d3cd4bd4",
    "cm-d1-q": "3b61b7b64efecd4fba01757a730e9fb45daef8c7a36885697e3c7c3a16c3b810",
    "clt-d1": "8571ca8ae2905af6fca441f796fd1a23f800e0082913fb8b92ddb7c242c6e767",
    "critical-d3": "2bc6461f9b65d77c102de361fe00407a429485cd1ab5059c3662e382fe572873",
    "clt-d2-grid": "61414de4bef59c3ded7a0fc12e6b9137b009759c0721659a419ccd3472cd6b02",
    "slln-d2-diffusive": "438ff77cccf5ca3c185c105ceb4c6f80c2a5b04e51d05b1017352a329858af91",
    "slln-d1-superdiffusive": "7bdf7ceda3a4163491a68c06dcb4eb535752ce972ee0c1b74e6c015281568a10",
    "slln-d1-zero-median": "6805ff23cdbc3cdcadc284888fc891ccb915a02cbe692c121066251a4f26a0b2",
    "superdiffusive-d1": "0b2f04c3c04c60c5de481d53a99cf0060931321b8a9a92c99982674ed1f1243a",
    "superdiffusive-d2-q": "fce56a232f6d2d5576da63a3265c4ff9a656e0334cfe8755e09cbe346a32ba87",
    "cm-d2": "c948e9d5c7fca8b5b1e629d882a88d38c83fb313f9cffdb9d34f5a3e13bf2117",
    "cm-d3": "d90a2af53b5e98b223e0f0f2ec5f545651fa41d4fc44136a7fac84b22cdd3d0b",
    "clt-d2-grid-10k": "caddc75feed0f91bf4364d6b00f52de0d6aeab0716a66d395cfd85be0aa2b525",
}


@pytest.mark.parametrize("case", REPORT_CASES, ids=[c[0] for c in REPORT_CASES])
def test_reports_match_golden_digests(case):
    name, battery, (d, p, q), n, grid, seed, replicas = case
    entry = BATTERIES[battery]
    cfg = entry.config(ModelParams(d, p, q), seed, n, replicas, **{entry.kind: grid})
    report = json.dumps(entry.runner(cfg).canonical_dict(), sort_keys=True)
    assert hashlib.sha256(report.encode()).hexdigest() == GOLDEN_REPORTS[name]
