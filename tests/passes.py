"""Counts of the pair work that ``qiso.quasi`` does for each mapping.

:class:`PassCounter` wraps the primitives behind ``quasi._row_maxima``:
the tree-quotient test, the block tables, and the two per-pair branches.
Each call is counted against the mapping it works on, so one in-process
``qiso.cli.main`` run shows whether any mapping built its tables twice
or computed one stretch's rows twice. :class:`CallCounter` counts
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

# Each primitive takes the mapping first; the per-pair branches end with
# the stretch.
_WRAPPED = ("_tree_quotient", "_block_extremes", "_path_maxima", "_block_maxima")


class PassCounter:
    """Patch ``quasi``'s pass primitives, through ``monkeypatch``, to count them.

    ``calls[name][m]`` is how often primitive ``name`` ran on mapping
    ``m``; ``stretches[m]`` lists every stretch computed for ``m``, in
    order. Mappings are the keys themselves, kept alive, so no two share
    an identity. A primitive that the module lacks raises
    ``AttributeError``, so a renamed one cannot go uncounted.
    """

    def __init__(self, monkeypatch):
        self.calls = {name: Counter() for name in _WRAPPED}
        self.stretches = defaultdict(list)
        for name in _WRAPPED:
            monkeypatch.setattr(quasi, name, self._wrap(name, getattr(quasi, name)))

    def _wrap(self, name, original):
        def counted(m, *args):
            self.calls[name][m] += 1
            if name in ("_path_maxima", "_block_maxima"):
                self.stretches[m].append(args[-1])
            return original(m, *args)

        return counted

    def repeats(self):
        """Per mapping that did any work twice, what it did more than once."""
        out = []
        for m in set(self.stretches).union(*self.calls.values()):
            again = {
                name: self.calls[name][m]
                for name in ("_tree_quotient", "_block_extremes")
                if self.calls[name][m] > 1
            }
            again.update({s: k for s, k in Counter(self.stretches[m]).items() if k > 1})
            if again:
                out.append((repr(m), again))
        return out
