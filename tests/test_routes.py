"""The verify runner: one oracle count per distinct region in each (n, N) block."""

from hexcount import matchcount, routes


def test_verify_cases_counts_each_distinct_region_once_per_block(monkeypatch):
    real = matchcount.count_matchings
    calls = []

    def counted(g):
        calls.append(len(g.verts))
        return real(g)

    monkeypatch.setattr(matchcount, "count_matchings", counted)
    cases = routes.verify_grid(4, 4)
    first = routes.verify_cases(cases)
    assert len(calls) == 240  # 320 with one count per case and region
    assert all(r["agree"] for r in first) and len(first) == len(cases) == 96
    # the memo ends with its block: a second run counts everything again
    second = routes.verify_cases(cases)
    assert len(calls) == 480
    strip = [{k: v for k, v in r.items() if k != "wall_s"} for r in first]
    assert strip == [{k: v for k, v in r.items() if k != "wall_s"} for r in second]


def test_verify_cases_keep_the_order_of_an_unsorted_list():
    cases = [(2, 3, 2), (1, 2, 0), (2, 3, 1), (1, 2, 1)]
    assert [tuple(r["case"].values()) for r in routes.verify_cases(cases)] == cases
