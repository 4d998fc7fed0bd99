"""Unit tests for the set-associative tag store and the L1D controller
(reservation-failure semantics of paper §2.1)."""


from repro.config import CacheConfig
from repro.mem.cache import AccessResult, L1DCache, SetAssocCache
from repro.mem.subsystem import MemRequest


def small_cache_config(**overrides):
    defaults = dict(size_bytes=4 * 128, line_size=128, assoc=2,
                    mshrs=2, miss_queue=2, xor_index=False)
    defaults.update(overrides)
    return CacheConfig(**defaults)


def read(line, kernel=0, sm=0):
    return MemRequest(line=line, kernel=kernel, sm_id=sm, is_write=False)


def write(line, kernel=0, sm=0):
    return MemRequest(line=line, kernel=kernel, sm_id=sm, is_write=True)


class TestSetAssocCache:
    def test_reserve_then_fill_makes_line_valid(self):
        tags = SetAssocCache(small_cache_config())
        ok, dirty, _ = tags.reserve(0, kernel=0)
        assert ok and not dirty
        line = tags.probe(0)
        assert line.reserved and not line.valid
        tags.fill(0)
        assert tags.probe(0).valid

    def test_lru_victim_selection(self):
        # 2 sets x 2 ways, no xor: lines 0,2 -> set 0.
        tags = SetAssocCache(small_cache_config())
        for addr in (0, 2):
            tags.reserve(addr, 0)
            tags.fill(addr)
        tags.lookup(0)  # make line 0 MRU
        tags.reserve(4, 0)  # set 0 full -> evict LRU (line 2)
        assert tags.probe(2) is None
        assert tags.probe(0) is not None

    def test_reserved_lines_are_not_evictable(self):
        tags = SetAssocCache(small_cache_config())
        assert tags.reserve(0, 0)[0]
        assert tags.reserve(2, 0)[0]
        ok, _, _ = tags.reserve(4, 0)
        assert not ok, "a set full of reserved lines must refuse allocation"

    def test_invalidate(self):
        tags = SetAssocCache(small_cache_config())
        tags.reserve(0, 0)
        tags.fill(0)
        tags.invalidate(0)
        assert tags.probe(0) is None

    def test_partition_enforced_on_victims(self):
        # 1 set x 4 ways; kernel 0 allowed 1 way, kernel 1 allowed 3.
        cfg = small_cache_config(size_bytes=4 * 128, assoc=4)
        tags = SetAssocCache(cfg)
        tags.partition = {0: 1, 1: 3}
        tags.reserve(0, kernel=0)
        tags.fill(0)
        tags.reserve(1, kernel=0)  # kernel 0 over quota: must evict its own
        assert tags.probe(0) is None, "kernel 0 must evict its own line"
        occ = tags.occupancy_by_kernel()
        assert occ.get(0, 0) == 1

    def test_partition_over_quota_with_only_reserved_lines_fails(self):
        cfg = small_cache_config(size_bytes=4 * 128, assoc=4)
        tags = SetAssocCache(cfg)
        tags.partition = {0: 1, 1: 3}
        tags.reserve(0, kernel=0)  # reserved, not evictable
        ok, _, _ = tags.reserve(1, kernel=0)
        assert not ok

    def test_xor_indexing_spreads_aliases(self):
        cfg = CacheConfig(size_bytes=16 * 128, line_size=128, assoc=2,
                          mshrs=2, miss_queue=2, xor_index=True)
        tags = SetAssocCache(cfg)
        plain = CacheConfig(size_bytes=16 * 128, line_size=128, assoc=2,
                            mshrs=2, miss_queue=2, xor_index=False)
        flat = SetAssocCache(plain)
        stride_sets_plain = {flat.set_index(i * flat.num_sets) for i in range(8)}
        stride_sets_xor = {tags.set_index(i * tags.num_sets) for i in range(8)}
        assert len(stride_sets_plain) == 1
        assert len(stride_sets_xor) > 1


class TestL1DCache:
    def test_miss_then_hit_after_fill(self):
        l1 = L1DCache(small_cache_config())
        req = read(0)
        assert l1.access(req, 0) == AccessResult.MISS
        waiters = l1.fill(0, 0)
        assert waiters == [req]
        assert l1.access(read(0), 1) == AccessResult.HIT
        assert l1.stats.hits[0] == 1
        assert l1.stats.misses[0] == 1

    def test_secondary_miss_merges(self):
        l1 = L1DCache(small_cache_config())
        first, second = read(0), read(0)
        assert l1.access(first, 0) == AccessResult.MISS
        assert l1.access(second, 0) == AccessResult.MISS_MERGED
        assert len(l1.miss_queue) == 1, "secondary miss must not enter miss queue"
        assert set(l1.fill(0, 0)) == {first, second}

    def test_mshr_exhaustion_is_reservation_failure(self):
        l1 = L1DCache(small_cache_config(mshrs=1, miss_queue=8))
        assert l1.access(read(0), 0) == AccessResult.MISS
        result = l1.access(read(1), 0)
        assert result == AccessResult.RSFAIL_MSHR
        assert l1.stats.rsfails[0] == 1
        # the failed access must not count as an access (it replays)
        assert l1.stats.accesses[0] == 1

    def test_miss_queue_exhaustion_is_reservation_failure(self):
        l1 = L1DCache(small_cache_config(miss_queue=1, mshrs=8))
        assert l1.access(read(0), 0) == AccessResult.MISS
        assert l1.access(read(1), 0) == AccessResult.RSFAIL_MISSQ

    def test_line_exhaustion_is_reservation_failure(self):
        l1 = L1DCache(small_cache_config(mshrs=8, miss_queue=8))
        # set 0 holds lines 0 and 2 (2 ways); both reserved.
        assert l1.access(read(0), 0) == AccessResult.MISS
        assert l1.access(read(2), 0) == AccessResult.MISS
        assert l1.access(read(4), 0) == AccessResult.RSFAIL_LINE

    def test_merge_limit_is_reservation_failure(self):
        l1 = L1DCache(small_cache_config(mshr_merge=1))
        assert l1.access(read(0), 0) == AccessResult.MISS
        assert l1.access(read(0), 0) == AccessResult.RSFAIL_MERGE

    def test_replay_after_resource_frees(self):
        l1 = L1DCache(small_cache_config(mshrs=1, miss_queue=8))
        l1.access(read(0), 0)
        blocked = read(1)
        assert l1.access(blocked, 0) == AccessResult.RSFAIL_MSHR
        l1.fill(0, 0)
        assert l1.access(blocked, 1) == AccessResult.MISS

    def test_write_is_wewn(self):
        """Write-evict + write-no-allocate: writes invalidate a present
        line, consume only a miss-queue slot, and never use MSHRs."""
        l1 = L1DCache(small_cache_config(miss_queue=8))
        l1.access(read(0), 0)
        l1.fill(0, 0)
        assert l1.access(write(0), 1) == AccessResult.MISS
        assert len(l1.mshrs) == 0
        assert l1.access(read(0), 2) == AccessResult.MISS, "write evicted the line"

    def test_write_blocked_by_full_miss_queue(self):
        l1 = L1DCache(small_cache_config(miss_queue=1))
        l1.access(read(0), 0)
        assert l1.access(write(8), 0) == AccessResult.RSFAIL_MISSQ

    def test_per_kernel_stats_are_separate(self):
        l1 = L1DCache(small_cache_config(mshrs=8, miss_queue=8))
        l1.access(read(0, kernel=0), 0)
        l1.access(read(1, kernel=1), 0)
        assert l1.stats.accesses[0] == 1
        assert l1.stats.accesses[1] == 1
        assert l1.stats.miss_rate(0) == 1.0
