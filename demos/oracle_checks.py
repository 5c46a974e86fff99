"""Run the brute-force lemma checks and compare oracle against main path.

Run with: python demos/oracle_checks.py
"""

import quiverdec as qd
from quiverdec import oracle
from quiverdec.caps import DEFAULT_CAPS

print("Lemma checks at default bounds:")
for report in oracle.default_suite(DEFAULT_CAPS):
    status = "PASS" if report.passed else "FAIL"
    print(f"  {status}  {report.lemma:<14} instances={report.instances_checked:<6} elapsed={report.elapsed:.2f}s")

print("\nOracle vs main path on a small sweep (Kronecker, zero weight):")
kron = qd.extended_dynkin_quiver("A1")
ctx = qd.LambdaContext(kron, (0, 0))
import itertools

agree = 0
for alpha in itertools.product(range(4), repeat=2):
    if not any(alpha):
        continue
    main_dec = qd.canonical_decompose(ctx, alpha).multiset()
    oracle_dec = oracle.oracle_canonical(ctx, alpha)
    assert main_dec == oracle_dec, (alpha, main_dec, oracle_dec)
    agree += 1
print(f"  canonical decompositions agree on {agree} vectors")

print("\nEvery enumerated Sigma decomposition refines the canonical one:")
for alpha in [(2, 2), (3, 3), (2, 3)]:
    target = qd.canonical_decompose(ctx, alpha).multiset()
    decs = oracle.enumerate_sigma_decompositions(ctx, alpha)
    flags = [qd.check_refinement(d, target) for d in decs]
    print(f"  alpha={alpha}: {len(decs)} decompositions, all refine: {all(flags)}")
