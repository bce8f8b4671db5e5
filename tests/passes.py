"""Counts of the pair work that ``qiso.quasi`` does for each mapping.

:class:`PassCounter` wraps ``quasi._row_maxima``, the one dispatcher of
the pair layer, and ``quasi._block_maxima``, the block tables it builds
off tree quotients. Each call is counted against the mapping it works
on, so one in-process ``qiso.cli.main`` run shows which stretches each
mapping was asked for, and whether any mapping built its tables twice.
:class:`CallCounter` counts
the calls of any one function or method, such as the graphs that go
through ``Graph.__init__``'s validation, or only those calls that find
a condition true, such as a graph's eccentricities not yet cached.
"""

from collections import Counter, defaultdict

from qiso import quasi


class CallCounter:
    """Patch ``owner.name``, through ``monkeypatch``, to count its calls.

    ``count`` is how many calls were made since the patch, and ``args``
    lists each counted call's positional arguments, in order. Given
    ``when``, a call counts only if ``when(*args)`` holds as it starts.
    On ``Graph.__init__`` it counts the graphs validated; graphs built
    unchecked by ``graph._trusted_graph`` do not run it.
    """

    def __init__(self, monkeypatch, owner, name, when=None):
        self.count = 0
        self.args = []
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            if when is None or when(*args):
                self.count += 1
                self.args.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

class PassCounter:
    """Patch ``quasi``'s row dispatcher and block tables, through ``monkeypatch``.

    ``stretches[m]`` lists every stretch whose rows were asked of mapping
    ``m``, in order, and ``tables[m]`` counts the block tables built for
    it. Mappings are the keys themselves, kept alive, so no two share an
    identity. A name that the module lacks raises ``AttributeError``, so a
    renamed one cannot go uncounted.
    """

    def __init__(self, monkeypatch):
        self.stretches = defaultdict(list)
        self.tables = Counter()
        rows, tables = quasi._row_maxima, quasi._block_maxima

        def counted_rows(m, stretch):
            self.stretches[m].append(stretch)
            return rows(m, stretch)

        def counted_tables(m, stretch):
            self.tables[m] += 1
            return tables(m, stretch)

        monkeypatch.setattr(quasi, "_row_maxima", counted_rows)
        monkeypatch.setattr(quasi, "_block_maxima", counted_tables)

    def repeats(self):
        """Per mapping that did any work twice, what it did more than once."""
        out = []
        for m in set(self.stretches).union(self.tables):
            again = {s: k for s, k in Counter(self.stretches[m]).items() if k > 1}
            if self.tables[m] > 1:
                again["_block_maxima"] = self.tables[m]
            if again:
                out.append((repr(m), again))
        return out
