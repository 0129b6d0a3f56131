"""Self-time arithmetic on synthetic spans, and the patching tracer."""

from concurrent.futures import ThreadPoolExecutor
import types

import pytest

import spans
from spans import Span


def test_self_time_subtracts_the_union_of_children():
    parent = Span(0, "p", 1, 0.0, 10.0)
    kids = [Span(1, "a", 1, 2.0, 5.0, parent=0), Span(2, "b", 1, 4.0, 8.0, parent=0)]
    selfs = spans.self_times([parent, *kids])
    assert selfs == {0: pytest.approx(4.0), 1: pytest.approx(3.0), 2: pytest.approx(4.0)}


def test_pool_spans_attach_to_the_deepest_waiting_client_span():
    outer = Span(0, "cli", 1, 0.0, 10.0)
    inner = Span(1, "fit", 1, 1.0, 9.0, parent=0)
    pool = [Span(2, "lloyd", 2, 2.0, 6.0), Span(3, "lloyd", 3, 5.0, 8.0)]
    all_spans = [outer, inner, *pool]
    spans.attach_orphans(all_spans, client_thread=1)
    assert [sp.parent for sp in pool] == [1, 1]
    selfs = spans.self_times(all_spans)
    assert selfs[1] == pytest.approx(2.0)   # 8 s of the pool work overlaps, as [2, 8]
    assert selfs[0] == pytest.approx(2.0)


def test_tracer_patches_every_lookup_and_tags_threads():
    def work(x):
        return x * 2

    home = types.SimpleNamespace(work=work)
    caller = types.SimpleNamespace(work=work)
    tracer = spans.Tracer()
    tracer.patch([home, caller], "mod.work", "work", lambda a, k, res: {"result": res})
    with ThreadPoolExecutor(max_workers=2) as pool:
        assert list(pool.map(caller.work, [1, 2, 3])) == [2, 4, 6]
    assert home.work(5) == 10
    tracer.unpatch()
    assert home.work is work and caller.work is work
    assert sorted(sp.fields["result"] for sp in tracer.spans) == [2, 4, 6, 10]
    assert all(sp.end >= sp.start and sp.name == "mod.work" for sp in tracer.spans)
    assert len({sp.thread for sp in tracer.spans}) >= 2
