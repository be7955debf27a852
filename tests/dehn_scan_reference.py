"""The Dehn backend with ball membership decided by the bucket scan alone,
the reference the one-cell rewrites of DehnBackend._member are tested
against, and the Dehn lengths read off the bucket scan alone (ScanLengths),
the reference for the lengths DehnBackend._ball_length reads off short
Dehn-reduced words.

Run as a script, it builds two radius-6 balls both ways and compares them
item for item, in order, exiting 1 on any difference:

    PYTHONPATH=src python tests/dehn_scan_reference.py

- genus 2, where L2 = 14 and one-cell rewrites build all of ball(6);
- <a, b, c | aabaBBc>, where L2 = 12, so the scan decides layer 6 (two
  heptagons sharing a letter make duplicates of length 6 there).

They take about 175 s and 26 s (2 cores, Python 3.11, with a second run
beside them), nearly all of the first in the scan reference.
"""

import sys
import time

from periodlines.backends import SURFACE_GENUS2, DehnBackend, Presentation

CASES = [
    ("genus 2", SURFACE_GENUS2, 6),
    ("<a, b, c | aabaBBc>", Presentation(("a", "b", "c"), ("aabaBBc",)), 6),
]


class ScanLengths(DehnBackend):
    """Lengths by the bucket scan: the element of a Dehn-reduced word u is
    no longer than u, so its length is that of the element of the layers
    below |u| that the scan finds, or else |u| itself, and beyond the
    budget it is not certified.  This does not use the lemma that a
    Dehn-reduced u with 2 |u| <= L2 is a geodesic.  The ball itself is
    built by DehnBackend's one-cell rewrites."""

    def _ball_length(self, red):
        below = min(len(red), self.max_radius + 1) - 1
        self._grow(max(below, 0))
        idx = self._scan(red, range(below + 1))
        if idx is not None:
            return len(self._canon[idx])
        return len(red) if len(red) <= self.max_radius else None


class ScanDehn(ScanLengths):
    """Every layer up to the radius is scanned: u is compared with each
    member of its bucket by Dehn's algorithm (DehnBackend.equal).  Lengths
    are scanned too (ScanLengths)."""

    def _member(self, u, radius):
        idx = self._index.get(u)
        return idx if idx is not None else self._scan(u, range(radius + 1))


def main():
    failed = 0
    for name, presentation, radius in CASES:
        t0 = time.perf_counter()
        ball = DehnBackend(presentation, max_radius=radius).ball(radius)
        t1 = time.perf_counter()
        ref = ScanDehn(presentation, max_radius=radius).ball(radius)
        t2 = time.perf_counter()
        same = list(ball.items()) == list(ref.items())
        failed += not same
        print(f"{name} ball({radius}): {len(ball)} elements in {t1 - t0:.2f} s, "
              f"scan reference {len(ref)} in {t2 - t1:.2f} s, "
              f"{'identical' if same else 'DIFFERENT'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
