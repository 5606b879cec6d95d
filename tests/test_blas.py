import pytest

from courtpose import blas


def counts():
    return [get() for get, _ in blas._controls()]


def test_single_thread_restores_counts_after_an_error():
    if not blas._controls():
        pytest.skip("no OpenBLAS thread control in this numpy build")
    before = counts()
    for _, set_ in blas._controls():
        set_(2)
    try:
        with pytest.raises(RuntimeError):
            with blas.single_thread():
                assert counts() == [1] * len(before)
                raise RuntimeError("inside")
        assert counts() == [2] * len(before)
    finally:
        for (_, set_), n in zip(blas._controls(), before):
            set_(n)
    assert counts() == before
