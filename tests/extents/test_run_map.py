"""RunMap: run-length translation storage with frame arithmetic."""

from hypothesis import given, settings, strategies as st

from repro.extents import RunMap


def as_dict(runmap):
    return {key: (frame, attr) for key, frame, attr in runmap.items()}


class TestBasics:
    def test_empty(self):
        runs = RunMap()
        assert len(runs) == 0
        assert runs.run_count == 0
        assert runs.get(0) is None
        assert 0 not in runs

    def test_single_key(self):
        runs = RunMap()
        runs.set(5, 42, "rw")
        assert runs.get(5) == (42, "rw")
        assert 5 in runs
        assert len(runs) == 1
        assert runs.run_count == 1

    def test_run_frame_arithmetic(self):
        runs = RunMap()
        runs.set_run(100, 4, 7, "rw")
        assert runs.get(100) == (7, "rw")
        assert runs.get(103) == (10, "rw")
        assert runs.get(104) is None
        assert len(runs) == 4

    def test_million_page_run_is_one_entry(self):
        runs = RunMap()
        runs.set_run(0, 1_000_000, 0, "rw")
        assert len(runs) == 1_000_000
        assert runs.run_count == 1
        assert runs.get(999_999) == (999_999, "rw")


class TestCoalescing:
    def test_contiguous_frames_merge(self):
        runs = RunMap()
        runs.set(0, 10, "rw")
        runs.set(1, 11, "rw")
        runs.set(2, 12, "rw")
        assert runs.run_count == 1
        assert runs.runs() == [(0, 3, 10, "rw")]

    def test_noncontiguous_frames_do_not_merge(self):
        runs = RunMap()
        runs.set(0, 10, "rw")
        runs.set(1, 99, "rw")
        assert runs.run_count == 2

    def test_different_attr_does_not_merge(self):
        runs = RunMap()
        runs.set(0, 10, "rw")
        runs.set(1, 11, "ro")
        assert runs.run_count == 2

    def test_bridge_merges_both_sides(self):
        runs = RunMap()
        runs.set_run(0, 2, 10, "rw")
        runs.set_run(4, 2, 14, "rw")
        runs.set_run(2, 2, 12, "rw")
        assert runs.runs() == [(0, 6, 10, "rw")]

    def test_overwrite_splits_run(self):
        runs = RunMap()
        runs.set_run(0, 6, 10, "rw")
        runs.set(3, 50, "rw")
        assert runs.run_count == 3
        assert runs.get(2) == (12, "rw")
        assert runs.get(3) == (50, "rw")
        assert runs.get(4) == (14, "rw")
        assert len(runs) == 6


class TestClearRange:
    def test_clear_middle(self):
        runs = RunMap()
        runs.set_run(0, 10, 100, "rw")
        assert runs.clear_range(3, 6) == 3
        assert len(runs) == 7
        assert runs.get(2) == (102, "rw")
        assert runs.get(3) is None
        assert runs.get(6) == (106, "rw")

    def test_clear_spanning_runs(self):
        runs = RunMap()
        runs.set_run(0, 2, 0, "rw")
        runs.set_run(4, 2, 10, "ro")
        runs.set_run(8, 2, 20, "rw")
        assert runs.clear_range(1, 9) == 4
        assert as_dict(runs) == {0: (0, "rw"), 9: (21, "rw")}

    def test_delete(self):
        runs = RunMap()
        runs.set(3, 30, "rw")
        assert runs.delete(3) is True
        assert runs.delete(3) is False
        assert len(runs) == 0


class TestAttrRange:
    def test_set_attr_skips_holes(self):
        runs = RunMap()
        runs.set_run(0, 2, 0, "rw")
        runs.set_run(4, 2, 4, "rw")
        changed = runs.set_attr_range(0, 6, "ro")
        assert changed == 4
        assert runs.get(1) == (1, "ro")
        assert runs.get(5) == (5, "ro")
        assert runs.get(2) is None

    def test_set_attr_partial_run_splits(self):
        runs = RunMap()
        runs.set_run(0, 6, 0, "rw")
        assert runs.set_attr_range(2, 4, "ro") == 2
        assert runs.get(1) == (1, "rw")
        assert runs.get(2) == (2, "ro")
        assert runs.get(4) == (4, "rw")
        assert len(runs) == 6

    def test_noop_when_attr_equal(self):
        runs = RunMap()
        runs.set_run(0, 4, 0, "rw")
        assert runs.set_attr_range(0, 4, "rw") == 0
        assert runs.run_count == 1

    def test_reprotected_interior_merges_with_both_neighbours(self):
        runs = RunMap()
        runs.set_run(0, 2, 0, "ro")
        runs.set_run(2, 2, 2, "rw")
        runs.set_run(4, 2, 4, "ro")
        runs.set_run(6, 2, 6, "rw")
        assert runs.run_count == 4
        assert runs.set_attr_range(1, 8, "ro") == 4
        assert runs.runs() == [(0, 8, 0, "ro")]


def _maximal_runs(model):
    """(start, count, frame, attr) maximal runs of a per-key dict."""
    runs = []
    for key in sorted(model):
        frame, attr = model[key]
        if runs:
            start, count, base, last = runs[-1]
            if key == start + count and frame == base + count \
                    and attr == last:
                runs[-1] = (start, count + 1, base, last)
                continue
        runs.append((key, 1, frame, attr))
    return runs


_KEYS = 40
_ops = st.lists(st.tuples(
    st.sampled_from(["set_run", "clear_range", "set_attr_range"]),
    st.integers(0, _KEYS - 1), st.integers(0, 12),
    st.integers(0, 3), st.sampled_from(["ro", "rw"])), max_size=40)


@settings(max_examples=200, deadline=None)
@given(_ops)
def test_set_attr_range_matches_per_key_model(ops):
    """set_attr_range (in-place interior, split edges, one coalescing
    pass) against a per-key dict: same contents, same changed count,
    and the stored runs are exactly the model's maximal runs."""
    runs, model = RunMap(), {}
    for op, start, count, frame, attr in ops:
        end = start + count
        if op == "set_run":
            runs.set_run(start, count, frame, attr)
            for index in range(count):
                model[start + index] = (frame + index, attr)
        elif op == "clear_range":
            runs.clear_range(start, end)
            for key in range(start, end):
                model.pop(key, None)
        else:
            expected = sum(1 for key in range(start, end)
                           if key in model and model[key][1] != attr)
            assert runs.set_attr_range(start, end, attr) == expected
            for key in range(start, end):
                if key in model:
                    model[key] = (model[key][0], attr)
        assert as_dict(runs) == model
        assert runs.runs() == _maximal_runs(model)
        assert runs.run_count == len(_maximal_runs(model))
        assert len(runs) == len(model)


class TestQueries:
    def test_first_gap(self):
        runs = RunMap()
        runs.set_run(2, 3, 0, "rw")
        assert runs.first_gap(0, 10) == 0
        assert runs.first_gap(2, 5) is None
        assert runs.first_gap(2, 6) == 5
        assert runs.first_gap(3, 4) is None

    def test_covered_count(self):
        runs = RunMap()
        runs.set_run(0, 4, 0, "rw")
        runs.set_run(8, 4, 8, "rw")
        assert runs.covered_count(2, 10) == 4
        assert runs.covered_count(4, 8) == 0

    def test_runs_in_adjusts_frames(self):
        runs = RunMap()
        runs.set_run(0, 8, 100, "rw")
        assert runs.runs_in(3, 5) == [(3, 2, 103, "rw")]

    def test_keys_in(self):
        runs = RunMap()
        runs.set_run(0, 2, 0, "rw")
        runs.set_run(5, 2, 5, "rw")
        assert runs.keys_in(1, 6) == [1, 5]

    def test_clear(self):
        runs = RunMap()
        runs.set_run(0, 5, 0, "rw")
        runs.clear()
        assert len(runs) == 0
        assert runs.run_count == 0
