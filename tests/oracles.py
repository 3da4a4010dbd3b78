"""Reference formulas that more than one test module checks against."""


def gini_impurity(counts) -> float:
    """Gini impurity of a class-count vector; 0 for a pure node."""
    total = float(sum(counts))
    if total == 0:
        return 0.0
    return 1.0 - sum((c / total) ** 2 for c in counts)
