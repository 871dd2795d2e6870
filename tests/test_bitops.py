import pytest
from hypothesis import given, strategies as st

from ntangle.bitops import (
    count_ones,
    count_ones_star,
    parity_signs,
    sgn,
    sgn_star,
    sgn_star_table,
    sgn_table,
)
from ntangle.errors import DomainError


def test_count_ones_examples():
    assert count_ones(0, 4) == 0
    assert count_ones(7, 4) == 3
    assert count_ones(5, 3) == 2


def test_count_ones_star_examples():
    assert count_ones_star(5, 3) == 1  # drop the top bit of 101
    assert count_ones_star(8, 4) == 0  # only the dropped bit is set
    assert count_ones_star(3, 4) == 2  # top bit already clear


def test_sgn_examples():
    assert sgn(3, 0) == 1
    assert sgn(5, 3) == 1  # (-1)**N(3) = (-1)**2
    assert sgn(4, 1) == -1


def test_sgn_star_examples():
    assert [sgn_star(4, i) for i in range(4)] == [1, -1, -1, 1]
    assert sgn_star(5, 2) == -1  # first branch, 2 < 2**(5-3)
    assert sgn_star(2, 0) == 1


def test_sgn_star_upper_branch_odd_width():
    # for odd n the upper quarter carries the extra (-1)**n factor
    assert sgn_star(5, 4) == 1   # (-1)**(5 + N(4)) = (-1)**6
    assert sgn_star(5, 5) == -1  # (-1)**(5 + N(5)) = (-1)**7
    assert sgn_star(3, 1) == 1   # (-1)**(3 + N(1)) = (-1)**4


def test_domain_errors():
    with pytest.raises(DomainError):
        count_ones(16, 4)
    with pytest.raises(DomainError):
        count_ones(-1, 4)
    with pytest.raises(DomainError):
        sgn(3, 1)
    with pytest.raises(DomainError):
        sgn(2, 0)
    with pytest.raises(DomainError):
        sgn_star(2, 1)
    with pytest.raises(DomainError):
        sgn_star(4, 4)
    with pytest.raises(DomainError):
        count_ones(0, 0)
    with pytest.raises(DomainError):
        sgn_star(1, 0)
    with pytest.raises(DomainError):
        sgn_table(2)
    with pytest.raises(DomainError):
        sgn_star_table(1)


@given(st.integers(min_value=2, max_value=16), st.data())
def test_complement_identity(n, data):
    k = data.draw(st.integers(0, 2 ** n - 1))
    assert count_ones(k, n) + count_ones(2 ** n - 1 - k, n) == n
    assert count_ones_star(k, n) + count_ones_star(2 ** n - 1 - k, n) == n - 1


@given(st.integers(min_value=4, max_value=12), st.data())
def test_block_count_split(n, data):
    l = data.draw(st.integers(2, n - 2))
    k = data.draw(st.integers(0, 2 ** (n - l - 2) - 1))
    j = data.draw(st.integers(0, 2 ** (l - 2) - 1))
    assert count_ones(k + j * 2 ** (n - l - 1), n) == count_ones(j, n) + count_ones(k, n)


def test_tables_match_scalar_functions():
    for n in range(3, 9):
        table = sgn_table(n)
        assert [int(x) for x in table] == [sgn(n, i) for i in range(len(table))]
        star = sgn_star_table(n)
        assert [int(x) for x in star] == [sgn_star(n, i) for i in range(len(star))]
    assert list(sgn_star_table(2)) == [1]


def test_parity_signs_table():
    signs = parity_signs(5)
    assert all(int(signs[k]) == (-1) ** bin(k).count("1") for k in range(32))


def test_tables_are_read_only():
    with pytest.raises(ValueError):
        sgn_table(5)[0] = -1
