"""Shared hypothesis strategies."""

from hypothesis import strategies as st

from unicoh import Bipartition, Partition


def partitions(max_part: int = 8, max_rows: int = 6) -> st.SearchStrategy[Partition]:
    return st.lists(
        st.integers(min_value=1, max_value=max_part), min_size=0, max_size=max_rows
    ).map(lambda xs: Partition(sorted(xs, reverse=True)))


def nonempty_partitions(max_part: int = 8, max_rows: int = 6) -> st.SearchStrategy[Partition]:
    return st.lists(
        st.integers(min_value=1, max_value=max_part), min_size=1, max_size=max_rows
    ).map(lambda xs: Partition(sorted(xs, reverse=True)))


def partitions_up_to(max_size: int) -> st.SearchStrategy[Partition]:
    """Partitions of any shape with at most max_size boxes: parts are drawn
    freely and the list is cut where their running sum would pass max_size."""

    def cut(xs):
        kept, total = [], 0
        for x in xs:
            if total + x > max_size:
                break
            kept.append(x)
            total += x
        return Partition(sorted(kept, reverse=True))

    return st.lists(st.integers(min_value=1, max_value=max_size), max_size=max_size).map(cut)


def bipartitions(max_part: int = 5, max_rows: int = 4) -> st.SearchStrategy[Bipartition]:
    p = partitions(max_part, max_rows)
    return st.tuples(p, p).map(lambda pair: Bipartition(*pair))


def int_polys(max_coeff: int = 30, max_len: int = 8):
    from unicoh import IntPolynomial

    return st.lists(
        st.integers(min_value=-max_coeff, max_value=max_coeff), max_size=max_len
    ).map(IntPolynomial)
