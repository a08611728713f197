"""Record the reference digests of the search-full workload's outputs.

    python3 benchmarks/record_digests.py

Run it only at a commit whose search output is the reference; the
search-full workload then fails any op whose output differs from it.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from sytknap_bench import use_checkout_source  # noqa: E402


def main() -> None:
    use_checkout_source()
    from sytknap import search
    from sytknap_bench.checks import search_digest
    from sytknap_bench.workloads import DIGESTS_FILE, FULL_SEARCHES, digest_key

    digests = {}
    for n, families, max_side in FULL_SEARCHES:
        result = search.find_equal_sum_pairs(search.build_pool(n, families), max_side=max_side)
        digests[digest_key((n, families, max_side))] = search_digest(result)
    with open(DIGESTS_FILE, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {DIGESTS_FILE}")


if __name__ == "__main__":
    main()
