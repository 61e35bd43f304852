"""Tie-aware key ranking.

The protected-logic regime produces *flat* score vectors: on an MCML or
PG-MCML target the quantised traces often carry no information at all,
every key guess peaks at exactly the same value (frequently 0.0), and a
stable argsort then "ranks" the true key at its own byte value — a rank
statistic that depends on the key, not on the attack.  Averaged into a
guessing entropy, that bias reports ``key`` instead of the ~127.5 a
no-information attack must score.

The standard correction (Standaert et al., the security-evaluation
framework literature) ranks a guess as the number of strictly better
guesses plus the midpoint of its tie class: a unique winner still ranks
0, and a 256-way tie ranks 127.5 regardless of which byte is the key.
Every ranking in :mod:`repro.sca` — CPA, DPA, MLPA, and the standalone
:func:`repro.sca.metrics.key_rank` — goes through this module, and the
tie width is surfaced so a "best guess" produced by an argmax over tied
peaks is recognisable as the coin toss it is.

Success has one rule, kept here in :class:`KeyRanking`: an attack
recovers the key only when the true key's tie-aware rank is 0.0, i.e.
it holds a unique maximum.  A true key that merely shares the top score
is not recovered; an argmax test would call it recovered exactly when
its byte is the lowest of the tie class (key ``0x00`` on a flat trace
set).  :func:`repro.sca.metrics.mtd` and
:func:`repro.sca.metrics.success_rate` apply the same rule.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..errors import AttackError


def tie_aware_rank(scores: Sequence[float], index: int) -> float:
    """Rank of ``scores[index]``, counting ties at their midpoint.

    ``rank = (# strictly greater scores) + (tie_width - 1) / 2`` where
    the tie class is every guess scoring exactly ``scores[index]``.  A
    unique maximum ranks 0.0; an all-equal vector ranks
    ``(len - 1) / 2`` for every index.
    """
    arr = np.asarray(scores, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise AttackError("scores must be a non-empty 1-D vector")
    if not 0 <= index < arr.size:
        raise AttackError(
            f"index {index} out of range for {arr.size} scores")
    value = arr[index]
    greater = int(np.count_nonzero(arr > value))
    ties = int(np.count_nonzero(arr == value))
    return float(greater + (ties - 1) / 2.0)


def tie_width(scores: Sequence[float], index: int = None) -> int:
    """Number of guesses sharing a score (default: the maximum).

    A ``tie_width > 1`` at the maximum means any argmax-derived "best
    guess" was an arbitrary pick among that many equals — the flat
    protected-trace outcome.
    """
    arr = np.asarray(scores, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise AttackError("scores must be a non-empty 1-D vector")
    value = arr.max() if index is None else arr[index]
    return int(np.count_nonzero(arr == value))


class KeyRanking:
    """Verdicts a key-recovery result derives from its per-guess scores.

    Mixed into the attack result dataclasses (declared with
    ``repr=False``), which provide ``peak_per_guess`` — one score per
    key guess, higher is better — and a ``true_key`` field.
    """

    @property
    def best_guess(self) -> int:
        """Argmax of ``peak_per_guess``: the lowest index of a top tie,
        so see :meth:`best_guess_tie_width` before trusting it."""
        return int(self.peak_per_guess.argmax())

    @property
    def succeeded(self) -> Optional[bool]:
        """True only when the true key uniquely holds the top score."""
        if self.true_key is None:
            return None
        return self.rank_of_true_key() == 0.0

    def rank_of_true_key(self) -> float:
        """0.0 = the true key uniquely has the highest score.

        Tied scores rank at the midpoint of the tie class: the flat
        protected-trace outcome (all 256 scores equal) ranks 127.5 for
        any true key, instead of leaking the key byte back out through
        a stable argsort.
        """
        if self.true_key is None:
            raise AttackError("true key unknown")
        return tie_aware_rank(self.peak_per_guess, self.true_key)

    def best_guess_tie_width(self) -> int:
        """How many guesses share the winning score.

        When this is > 1 the argmax ``best_guess`` was an arbitrary pick
        among equals (256 on a perfectly flat trace set) and "best"
        carries no information.
        """
        return tie_width(self.peak_per_guess)

    def __repr__(self) -> str:
        status = ""
        if self.true_key is not None:
            status = (", SUCCESS" if self.succeeded
                      else f", rank {self.rank_of_true_key()}")
        return (f"{type(self).__name__}(best={self.best_guess:#04x}"
                f"{status}, peak={self.peak_per_guess.max():.4f})")
