"""Fixed inputs of the benchmark's workloads, shared by the worker, the
reference and the checks.  Only the standard library is imported here,
so the worker's set-up time holds nothing but the program's own."""

WORKLOADS = ("desk-suite", "search-e6", "search-e7", "t1-k4")

# search_desirable(4, e, 1, N): workload -> (e, N)
SEARCH_N = {"search-e6": (6, 1000), "search-e7": (7, 64)}

# desk-suite: the oracle sweep runs gnq_oracle_check for n = 0..ORACLE_N
# over GF(q^e) for each (q, e)
ORACLE_FIELDS = ((2, 1), (2, 2), (2, 3), (4, 1), (4, 2), (4, 3))
ORACLE_N = 2000
# charsum_pp_test on x^d over GF(64)
CHARSUM_D = tuple(range(1, 63))
# the proof-gcd sweep
GCD_CASE1_K = (2, 4, 6, 8, 10, 12)
GCD_CASE2_K = tuple(range(1, 13))
# the two T2 cases, each L = sum of x^(2^t) over the listed t:
# S(3)^2 = x^2 + x^8 + x^32 and x + frob(S(2), 1) = x + x^4 + x^16
T2_CASES = {"S(3)^2": (1, 3, 5), "x + frob(S(2), 1)": (0, 2, 4)}
