"""CHTree-style hash tree: functional Merkle tree + timing model.

Per-line MACs alone cannot stop **replay**: an adversary records a stale
(ciphertext, MAC) pair and restores it after the line is rewritten.  The
CHTree approach ([22], Section 5.2.3) builds an m-ary hash tree over the
protected region, keeps the root on-chip, and caches verified tree nodes
in a small dedicated cache so most verifications terminate at a cached
ancestor instead of walking to the root.

Two classes:

- :class:`MerkleTree` -- the functional tree used by the functional secure
  machine (real SHA-256 hashes, detects any tamper/replay).
- :class:`HashTreeTiming` -- the timing model used by the simulator
  (node-cache hits/misses, ancestor fetches, pipelined hashing).
"""

import hashlib

from repro.cache.cache import Cache
from repro.config import CacheConfig
from repro.errors import IntegrityError


class MerkleTree:
    """Functional m-ary Merkle tree over fixed-size leaves.

    Leaves are the protected lines' ciphertexts.  ``update`` recomputes the
    path to the root; ``verify`` walks leaf-up and compares against stored
    node hashes, raising :class:`IntegrityError` on the first mismatch --
    including the replay case, because the stored path hashes no longer
    match a stale leaf.
    """

    def __init__(self, num_leaves, arity=4, hash_bytes=16):
        if num_leaves < 1:
            raise ValueError("need at least one leaf")
        if arity < 2:
            raise ValueError("arity must be >= 2")
        self.arity = arity
        self.hash_bytes = hash_bytes
        self.num_leaves = num_leaves
        self._levels = []  # level 0 = hashes of leaves, ...
        count = num_leaves
        while count > 1:
            count = -(-count // arity)
            self._levels.append([None] * count)
        if not self._levels:
            self._levels.append([None])
        self._leaf_hashes = [None] * num_leaves

    @property
    def root(self):
        return self._levels[-1][0]

    def _hash_leaf(self, index, data):
        material = b"leaf" + index.to_bytes(8, "big") + bytes(data)
        return hashlib.sha256(material).digest()[: self.hash_bytes]

    def _hash_children(self, level, index, children):
        material = b"node" + level.to_bytes(2, "big") + index.to_bytes(8, "big")
        for child in children:
            material += child if child is not None else b"\x00" * self.hash_bytes
        return hashlib.sha256(material).digest()[: self.hash_bytes]

    def _recompute_node(self, level, index):
        if level == 0:
            lo = index * self.arity
            children = self._leaf_hashes[lo : lo + self.arity]
        else:
            lo = index * self.arity
            children = self._levels[level - 1][lo : lo + self.arity]
        return self._hash_children(level, index, children)

    def update(self, leaf_index, data):
        """Install leaf ``leaf_index`` = ``data`` and refresh its path."""
        if not 0 <= leaf_index < self.num_leaves:
            raise ValueError("leaf index out of range")
        self._leaf_hashes[leaf_index] = self._hash_leaf(leaf_index, data)
        index = leaf_index
        for level in range(len(self._levels)):
            index //= self.arity
            self._levels[level][index] = self._recompute_node(level, index)

    def verify(self, leaf_index, data):
        """Verify leaf ``leaf_index`` against the tree; raise on mismatch."""
        if not 0 <= leaf_index < self.num_leaves:
            raise ValueError("leaf index out of range")
        expected = self._leaf_hashes[leaf_index]
        if expected is None or self._hash_leaf(leaf_index, data) != expected:
            raise IntegrityError(
                "leaf %d fails hash-tree verification" % leaf_index,
                line_addr=leaf_index,
            )
        index = leaf_index
        for level in range(len(self._levels)):
            index //= self.arity
            stored = self._levels[level][index]
            if stored is None or self._recompute_node(level, index) != stored:
                raise IntegrityError(
                    "tree node (level %d, %d) fails verification"
                    % (level, index),
                    line_addr=leaf_index,
                )
        return True


class HashTreeTiming:
    """Timing of CHTree verification with a dedicated node cache.

    For each protected-line verification, the engine must have verified
    tree nodes up to the first cached (hence already-verified) ancestor.
    Uncached ancestors are fetched from memory; hashing is pipelined so the
    verification's extra cost is dominated by the ancestor fetches plus one
    hash latency per fetched level (the paper performs internal-node
    verification "concurrently when allowed"; we charge the serial fetch
    chain and a single extra hash per level beyond the leaf).
    """

    def __init__(self, layout, cache_bytes=8 * 1024, hash_latency=74,
                 stats=None):
        self.layout = layout
        self.hash_latency = hash_latency
        config = CacheConfig(
            name="tree_cache",
            size_bytes=cache_bytes,
            line_bytes=layout.line_bytes,
            associativity=4,
            latency=1,
        )
        self.node_cache = Cache(config, stats=stats)
        # Evicted-but-verified tree nodes also live in the regular L2
        # (CHTree keeps internal nodes cacheable); attached by the
        # hierarchy after construction.
        self.backing_cache = None
        self.backing_latency = 0
        self.stats = stats
        if stats is not None:
            self._node_fetches = stats.counter("tree_node_fetches")
            self._backing_hits = stats.counter("tree_backing_hits")
            self._walk_depth = stats.histogram("tree_walk_depth")
        else:
            self._node_fetches = None
            self._backing_hits = None
            self._walk_depth = None

    def attach_backing(self, cache, latency):
        """Let verified tree nodes occupy the unified L2 as well."""
        self.backing_cache = cache
        self.backing_latency = latency

    def verification_extra(self, line_addr, ready_time, controller):
        """Extra verification inputs for one line.

        Returns ``(nodes_ready, extra_hash_latency)``: the cycle by which
        every required tree node is on-chip, and the additional hashing
        latency beyond the leaf MAC check.  Fetched nodes are installed in
        the node cache (they are verified as part of this walk).
        """
        line_index = self.layout.line_index(line_addr)
        depth = 0
        nodes_ready = ready_time
        for node_addr in self.layout.tree_path(line_index):
            access = self.node_cache.access(node_addr)
            if access.hit:
                break
            depth += 1
            if self.backing_cache is not None:
                backing = self.backing_cache.access(node_addr)
                if backing.hit:
                    # A verified node resident in the unified L2 ends the
                    # walk just like a tree-cache hit.
                    nodes_ready += self.backing_latency
                    if self._backing_hits is not None:
                        self._backing_hits.add()
                    break
            fetch = controller.fetch_metadata(
                node_addr, nodes_ready, self.layout.line_bytes, kind="tree"
            )
            nodes_ready = fetch.done_cycle
            if self._node_fetches is not None:
                self._node_fetches.add()
        if self._walk_depth is not None:
            self._walk_depth.add(depth)
        # Internal-node verification runs concurrently (Section 5.3.3:
        # "performs the verification of the internal hash tree nodes
        # concurrently when it is allowed"), so a non-trivial walk costs
        # one extra pipelined hash, not one per level.
        return nodes_ready, self.hash_latency if depth else 0

    def touch_for_update(self, line_addr):
        """Mark the line's leaf-path nodes dirty (writeback updates them)."""
        line_index = self.layout.line_index(line_addr)
        for node_addr in self.layout.tree_path(line_index):
            access = self.node_cache.access(node_addr, is_write=True)
            if access.hit:
                break

    def reset(self):
        self.node_cache.reset()
