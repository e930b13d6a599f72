"""Unit tests for result tables and charts."""

from repro.metrics import Series, StackedBars, format_table


class TestFormatTable:
    def test_basic_layout(self):
        out = format_table(["a", "bb"], [[1, 2.5], [30, 4.0]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bb" in lines[2]
        assert "30" in out and "2.5" in out

    def test_no_title(self):
        out = format_table(["x"], [[1]])
        assert out.splitlines()[0].strip() == "x"


class TestSeries:
    def test_add_keeps_xs_sorted(self):
        s = Series("t", "procs", "cycles")
        s.add("a-i", 4, 10.0)
        s.add("a-i", 1, 5.0)
        s.add("a-i", 2, 7.0)
        assert s.xs == [1, 2, 4]
        assert s.lines["a-i"] == [5.0, 7.0, 10.0]

    def test_missing_points_render_dash(self):
        s = Series("t", "p", "c")
        s.add("a", 1, 1.0)
        s.add("b", 2, 2.0)
        rows = s.as_rows()
        assert rows[0] == [1, 1.0, "-"]
        assert rows[1] == [2, "-", 2.0]

    def test_render_contains_labels(self):
        s = Series("Figure 8", "procs", "cycles")
        s.add("tk-i", 1, 100.0)
        out = s.render()
        assert "Figure 8" in out
        assert "tk-i" in out


class TestStackedBars:
    def test_counts_and_total(self):
        b = StackedBars("f9", ["cold", "true"])
        b.add("tk-i", {"cold": 3, "true": 2, "ignored": 9})
        assert b.total("tk-i") == 5
        assert b.as_rows() == [["tk-i", 3, 2, 5]]

    def test_missing_categories_zero(self):
        b = StackedBars("f", ["cold", "true"])
        b.add("x", {})
        assert b.total("x") == 0

    def test_render_has_bars_and_legend(self):
        b = StackedBars("f9", ["cold", "true"])
        b.add("tk-i", {"cold": 10, "true": 5})
        out = b.render()
        assert "legend:" in out
        assert "#" in out
