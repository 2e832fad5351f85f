"""The rewrite kernel.

Words are tuples of ints (generator indices).  A RuleTable holds oriented
rules lhs -> rhs with len(rhs) <= len(lhs), so rewriting never grows a word.
Reduction strategy is fixed and deterministic: scan positions left to right,
at each position try rules in table order, after a replacement resume at the
leftmost position a new redex could start.
"""

from __future__ import annotations

# kept for benchmark result files, which record the kernel they ran on
KERNEL_BACKEND = "python"

__all__ = ["RuleTable", "KERNEL_BACKEND"]


class RuleTable:
    __slots__ = ("rules", "max_lhs")

    def __init__(self, rules):
        canon = []
        for lhs, rhs in rules:
            lhs = tuple(lhs)
            rhs = tuple(rhs)
            if not lhs:
                raise ValueError("rule with empty left-hand side")
            if len(rhs) > len(lhs):
                raise ValueError("rule grows words; table expects shortlex-oriented rules")
            canon.append((lhs, rhs))
        self.rules = tuple(canon)
        self.max_lhs = max((len(l) for l, _ in canon), default=0)

    def reduce(self, word):
        """Return the normal form of ``word`` under the table's strategy."""
        if not self.rules:
            return tuple(word)
        w = list(word)
        rules = self.rules
        i = 0
        while i < len(w):
            hit = False
            for lhs, rhs in rules:
                n = len(lhs)
                if i + n <= len(w) and tuple(w[i : i + n]) == lhs:
                    w[i : i + n] = rhs
                    i = max(0, i - self.max_lhs + 1)
                    hit = True
                    break
            if not hit:
                i += 1
        return tuple(w)
