import multiprocessing
import os
import sys

import pytest

from courtpose import blas
from courtpose.skinning import fit_pose_to_keypoints
from courtpose.synth import synth_scene


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


def fake_controls(threads):
    """(get, set) pairs over the list ``threads``, with every set recorded."""
    calls = []

    def control(k):
        def set_(n):
            calls.append((k, n))
            threads[k] = n
        return (lambda: threads[k]), set_

    return tuple(control(k) for k in range(len(threads))), calls


def test_single_thread_sets_no_count_that_is_already_one(monkeypatch):
    threads = [1, 1]
    controls, calls = fake_controls(threads)
    monkeypatch.setattr(blas, "_controls", lambda: controls)
    with blas.single_thread():
        assert threads == [1, 1]
    assert calls == []
    # of a library on four threads and one on one, only the first is set
    threads[0] = 4
    with blas.single_thread():
        assert threads == [1, 1]
    assert threads == [4, 1]
    assert calls == [(0, 1), (0, 4)]


def fit_on_one_thread(bundle):
    """Exit 0 when the process runs one thread after the fit, else its
    thread count; a fit that raises exits 1."""
    fit_pose_to_keypoints(bundle.skeleton, bundle.pose_root)
    threads = len(os.listdir("/proc/self/task"))
    sys.exit(0 if threads == 1 else threads)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts /proc/self/task")
def test_child_forked_from_a_pinned_process_stays_on_one_thread():
    # a --jobs worker: fit_pose_to_keypoints runs under single_thread in a
    # child forked from a process on one BLAS thread; had it called the
    # setter, OpenBLAS would have started its thread pool again
    if not blas._controls():
        pytest.skip("no OpenBLAS thread control in this numpy build")
    bundle = synth_scene(5000)
    with blas.single_thread():
        child = multiprocessing.get_context("fork").Process(target=fit_on_one_thread,
                                                            args=(bundle,))
        child.start()
    child.join(60)
    assert not child.is_alive()
    assert child.exitcode == 0
