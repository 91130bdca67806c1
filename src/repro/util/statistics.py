"""Lightweight statistics collection for the simulator.

The timing model and the memory hierarchy attach counters and histograms to
a shared :class:`StatGroup` so that experiment drivers can render a single
report per run (miss rates, queue occupancies, stall cycles, ...).
"""


class Counter:
    """A named monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def add(self, amount=1):
        self.value += amount

    def reset(self):
        self.value = 0

    def __repr__(self):
        return "Counter(%s=%d)" % (self.name, self.value)


class Histogram:
    """A named histogram over integer buckets."""

    __slots__ = ("name", "buckets")

    def __init__(self, name):
        self.name = name
        self.buckets = {}

    def add(self, key, amount=1):
        self.buckets[key] = self.buckets.get(key, 0) + amount

    @property
    def total(self):
        return sum(self.buckets.values())

    def mean(self):
        """Weighted mean of bucket keys; 0.0 for an empty histogram."""
        total = self.total
        if total == 0:
            return 0.0
        return sum(k * v for k, v in self.buckets.items()) / total

    def percentile(self, q):
        """Smallest key whose cumulative weight covers the ``q``-th
        percentile (``q`` in [0, 100]); None for an empty histogram.

        None (not 0) so consumers can tell "no observations" apart from
        "the percentile is the 0 bucket"; renderers show it as ``--``.
        """
        if not 0 <= q <= 100:
            raise ValueError("percentile must be in [0, 100], got %r" % q)
        total = self.total
        if total == 0:
            return None
        need = q / 100.0 * total
        cumulative = 0
        for key in sorted(self.buckets):
            cumulative += self.buckets[key]
            if cumulative >= need:
                return key
        return key

    def max_key(self):
        """Largest observed key; None for an empty histogram."""
        return max(self.buckets) if self.buckets else None

    def reset(self):
        self.buckets.clear()

    def __repr__(self):
        return "Histogram(%s, n=%d)" % (self.name, self.total)


class StatGroup:
    """A flat namespace of counters and histograms.

    >>> stats = StatGroup("l2")
    >>> stats.counter("miss").add()
    >>> stats["miss"].value
    1
    """

    def __init__(self, name=""):
        self.name = name
        self._stats = {}

    def counter(self, name):
        stat = self._stats.get(name)
        if stat is None:
            stat = Counter(name)
            self._stats[name] = stat
        elif not isinstance(stat, Counter):
            raise TypeError("stat %r exists and is not a Counter" % name)
        return stat

    def histogram(self, name):
        stat = self._stats.get(name)
        if stat is None:
            stat = Histogram(name)
            self._stats[name] = stat
        elif not isinstance(stat, Histogram):
            raise TypeError("stat %r exists and is not a Histogram" % name)
        return stat

    def __getitem__(self, name):
        return self._stats[name]

    def __contains__(self, name):
        return name in self._stats

    def names(self):
        return sorted(self._stats)

    def reset(self):
        for stat in self._stats.values():
            stat.reset()

    def as_dict(self):
        """Flatten to ``{name: value-or-bucket-dict}`` for reporting."""
        out = {}
        for name, stat in self._stats.items():
            if isinstance(stat, Counter):
                out[name] = stat.value
            else:
                out[name] = dict(stat.buckets)
        return out

    @classmethod
    def from_dict(cls, payload, name=""):
        """Rebuild a group from an :meth:`as_dict` snapshot.

        Inverse of :meth:`as_dict` up to JSON round-tripping: histogram
        bucket keys that JSON turned into digit strings come back as
        ints.  This is what lets checkpoint journals hand back live
        ``StatGroup``s instead of bare dicts.
        """
        group = cls(name)
        for stat_name, value in payload.items():
            if isinstance(value, dict):
                histogram = group.histogram(stat_name)
                try:   # every key a digit string: convert in one pass
                    histogram.buckets = dict(zip(map(int, value),
                                                 value.values()))
                except (TypeError, ValueError):
                    histogram.buckets = {_bucket_key(key): count
                                         for key, count in value.items()}
            else:
                group.counter(stat_name).value = value
        return group


def _bucket_key(key):
    """A histogram bucket key read back from JSON: digit strings
    become ints, any other key stays as it is."""
    if isinstance(key, str):
        try:
            return int(key)
        except ValueError:
            pass
    return key
