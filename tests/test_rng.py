import numpy as np

from fluidpricing.rng import mix64, replication_seed, uniforms
from oracles import uniform_block


def test_uniforms_in_unit_interval():
    u = uniform_block(12345, 0, 100000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1 / 12) < 0.001


def test_streams_are_deterministic_and_counter_addressable():
    block = uniform_block(99, 0, 64)
    again = uniform_block(99, 0, 64)
    np.testing.assert_array_equal(block, again)
    # random access agrees with the block
    assert uniforms(np.uint64(99), 17) == block[17]
    tail = uniform_block(99, 32, 32)
    np.testing.assert_array_equal(tail, block[32:])


def test_replication_seeds_are_distinct_and_order_free():
    seeds = replication_seed(7, np.arange(10000))
    assert len(np.unique(seeds)) == 10000
    assert replication_seed(7, 42) == seeds[42]
    # different base seeds decorrelate the streams
    assert replication_seed(8, 42) != seeds[42]


def test_mix64_avalanche():
    a = int(mix64(np.uint64(1)))
    b = int(mix64(np.uint64(2)))
    assert bin(a ^ b).count("1") > 16
