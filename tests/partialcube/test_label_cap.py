"""The historical 63-class packed-label cap is gone: wide labels.

This file used to pin early, explicit errors at the 64-PE fat-tree /
64-vertex tree limit; those errors no longer exist.  It now pins the
opposite contract: everything that used to die at the cap labels fine,
switching to the multi-word representation exactly past 63 classes.
"""

import numpy as np

import repro.partialcube.djokovic as djk
from repro.graphs import generators as gen
from repro.partialcube.verify import verify_labeling
from repro.utils.bitops import MAX_LABEL_BITS


class TestFatTreeCapLifted:
    def test_127_switch_fat_tree_builds_and_labels(self):
        # 2-ary height 6 = 127 switches = 126 Djokovic classes > 63:
        # used to raise ConfigurationError at construction.
        t = gen.fat_tree(2, 6)
        assert t.n == 127 and t.m == 126
        pc = djk.partial_cube_labeling(t)
        assert pc.dim == 126
        assert pc.labels.shape == (127, 2) and pc.labels.dtype == np.uint64
        assert verify_labeling(t, pc.labels)

    def test_narrow_fat_tree_still_narrow(self):
        # 2-ary height 5 = 63 switches = 62 classes <= 63: the packed
        # int64 fast path, unchanged.
        t = gen.fat_tree(2, 5)
        pc = djk.partial_cube_labeling(t)
        assert pc.dim == t.m == 62
        assert pc.labels.ndim == 1 and pc.labels.dtype == np.int64


class TestPathsAcrossTheBoundary:
    def test_path_at_cap_narrow(self):
        p = gen.path(MAX_LABEL_BITS + 1)  # 64 vertices, 63 edges
        pc = djk.partial_cube_labeling(p)
        assert pc.dim == MAX_LABEL_BITS
        assert pc.labels.ndim == 1

    def test_path_just_beyond_cap_goes_wide(self):
        p = gen.path(MAX_LABEL_BITS + 2)  # 65 vertices, 64 edges
        pc = djk.partial_cube_labeling(p)
        assert pc.dim == MAX_LABEL_BITS + 1
        assert pc.labels.ndim == 2 and pc.labels.shape[1] == 1
        assert verify_labeling(p, pc.labels)

    def test_raw_classes_agree_with_wide_labels(self):
        t = gen.fat_tree(2, 6)
        edge_class, classes = djk.djokovic_classes(t)
        assert len(classes) == t.m  # every tree edge its own class
        pc = djk.partial_cube_labeling(t)
        # bit j of the labels must separate exactly class j's cut
        bits = pc.as_bit_matrix()
        us, vs, _ = t.edge_arrays()
        for e in range(t.m):
            j = int(edge_class[e])
            assert bits[us[e], j] != bits[vs[e], j]
