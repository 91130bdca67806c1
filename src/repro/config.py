"""Simulation configuration (the paper's Table 3, plus secure-layer knobs).

All timing parameters are expressed in **core cycles** at the reference
1.0 GHz clock, so 1 ns == 1 cycle and the paper's numbers appear verbatim.
The memory bus runs at 200 MHz, i.e. ``bus_multiplier = 5`` core cycles per
bus clock.
"""

from dataclasses import dataclass, field, replace

from repro.errors import ConfigError


def _power_of_two(value):
    return value > 0 and value & (value - 1) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    name: str
    size_bytes: int
    line_bytes: int
    associativity: int
    latency: int
    write_back: bool = True

    def __post_init__(self):
        if self.size_bytes % (self.line_bytes * self.associativity):
            raise ConfigError(
                "%s: size %d not divisible by line*assoc"
                % (self.name, self.size_bytes)
            )
        if not _power_of_two(self.line_bytes):
            raise ConfigError("%s: line size must be a power of two" % self.name)
        if self.latency < 1:
            raise ConfigError("%s: latency must be >= 1 cycle" % self.name)

    @property
    def num_sets(self):
        return self.size_bytes // (self.line_bytes * self.associativity)


@dataclass(frozen=True)
class DramConfig:
    """PC-SDRAM timing (Table 3) in core cycles.

    ``cas``/``rcd``/``rp`` are given in memory-bus clocks in the paper and
    converted here via ``bus_multiplier``.
    """

    bus_multiplier: int = 5          # core cycles per memory-bus clock
    bus_width_bytes: int = 8         # 8B-wide data bus
    cas_bus_clocks: int = 20
    rcd_bus_clocks: int = 7
    rp_bus_clocks: int = 7
    num_banks: int = 8
    row_bytes: int = 4096
    interleave_bytes: int = 256      # bank-interleave granularity
    chunk_gap_cycles: int = 5        # the "-5-5-5" burst cadence

    def __post_init__(self):
        if not _power_of_two(self.num_banks):
            raise ConfigError("num_banks must be a power of two")
        if not _power_of_two(self.row_bytes):
            raise ConfigError("row_bytes must be a power of two")
        if not _power_of_two(self.interleave_bytes):
            raise ConfigError("interleave_bytes must be a power of two")

    @property
    def cas_cycles(self):
        return self.cas_bus_clocks * self.bus_multiplier

    @property
    def rcd_cycles(self):
        return self.rcd_bus_clocks * self.bus_multiplier

    @property
    def rp_cycles(self):
        return self.rp_bus_clocks * self.bus_multiplier

    def transfer_cycles(self, num_bytes):
        """Core cycles the data bus is busy moving ``num_bytes``."""
        bus_clocks = -(-num_bytes // self.bus_width_bytes)  # ceil division
        return bus_clocks * self.bus_multiplier


@dataclass(frozen=True)
class SecureConfig:
    """Secure-memory engine parameters (Section 5.2)."""

    decrypt_latency: int = 80            # pipelined AES, cycles
    hmac_latency: int = 74               # SHA-256 per 512-bit input, cycles
    # "ctr": counter mode + HMAC (reference); "cbc": CBC + CBC-MAC, the
    # Table 1 alternative with serial decryption but no decrypt/verify gap
    encryption_mode: str = "ctr"
    # "hmac": SHA-256 HMAC (reference); "gmac": Galois MAC -- a shallow
    # GF(2^128) pipeline that nearly closes the decrypt-to-verify gap
    mac_scheme: str = "hmac"
    gmac_latency: int = 8
    # Split counters (per-page major + per-line minor): one 64B counter
    # block covers a whole 4KB page, multiplying counter-cache coverage.
    # Minor-counter overflow forces a page re-encryption burst.
    split_counters: bool = False
    minor_counter_bits: int = 7
    mac_bits: int = 64                   # truncated HMAC tag width
    auth_queue_depth: int = 16
    mac_throughput: int = 9              # verification initiation interval
    counter_cache_bytes: int = 32 * 1024
    counter_bytes: int = 8               # per-line counter size in memory
    # The reference decryption path is the prediction/precomputation
    # scheme of [19]: on a counter-cache miss the engine speculates the
    # counter value and starts the pad anyway; this is its success rate.
    counter_prediction_rate: float = 0.93
    store_buffer_entries: int = 32       # for authen-then-write
    # CHTree hash tree (Section 5.3.3)
    hash_tree_enabled: bool = False
    hash_tree_cache_bytes: int = 8 * 1024
    hash_bytes: int = 8                  # per-node hash size -> arity 8
    # Address obfuscation (Sections 4.3 / 5.2.4)
    obfuscation_enabled: bool = False
    remap_cache_bytes: int = 256 * 1024
    remap_entry_bytes: int = 8
    remap_cache_latency: int = 2
    remap_chunk_bytes: int = 4096        # HIDE-style chunk granularity
    remap_shuffle_period: int = 64       # writebacks per chunk re-shuffle

    def effective(self, authentication, obfuscation=False):
        """The engine structure a run with these policy terms has.

        Obfuscation is on when the config or the policy asks for it;
        the hash tree only when the config enables it *and* the policy
        authenticates (a policy that verifies nothing walks no tree).
        Returns ``self`` when neither rule changes anything.
        """
        tree = self.hash_tree_enabled and authentication
        remap = self.obfuscation_enabled or obfuscation
        if (tree, remap) == (self.hash_tree_enabled,
                             self.obfuscation_enabled):
            return self
        return replace(self, hash_tree_enabled=tree,
                       obfuscation_enabled=remap)


@dataclass(frozen=True)
class CoreConfig:
    """Out-of-order core parameters (Table 3)."""

    fetch_width: int = 8
    decode_width: int = 8
    issue_width: int = 8
    commit_width: int = 8
    ruu_entries: int = 128
    lsq_entries: int = 64
    pipeline_depth: int = 5          # fetch-to-dispatch depth
    branch_mispredict_penalty: int = 8
    int_alu_latency: int = 1
    int_mul_latency: int = 3
    fp_latency: int = 4
    branch_predictor_accuracy: float = 0.94   # trace-driven predictor model

    def __post_init__(self):
        if self.ruu_entries < 8:
            raise ConfigError("ruu_entries too small")
        if not 0.0 <= self.branch_predictor_accuracy <= 1.0:
            raise ConfigError("branch_predictor_accuracy must be in [0,1]")


def l1i_config():
    return CacheConfig("l1i", 16 * 1024, 32, 1, 1)


def l1d_config():
    return CacheConfig("l1d", 16 * 1024, 32, 1, 1)


def l2_config(size_bytes=256 * 1024):
    latency = 4 if size_bytes <= 256 * 1024 else 8
    return CacheConfig("l2", size_bytes, 64, 4, latency)


@dataclass(frozen=True)
class SimConfig:
    """Complete simulation configuration with Table 3 defaults."""

    core: CoreConfig = field(default_factory=CoreConfig)
    l1i: CacheConfig = field(default_factory=l1i_config)
    l1d: CacheConfig = field(default_factory=l1d_config)
    l2: CacheConfig = field(default_factory=l2_config)
    dram: DramConfig = field(default_factory=DramConfig)
    secure: SecureConfig = field(default_factory=SecureConfig)
    mshr_entries: int = 16           # outstanding external misses
    # Next-N-lines stream prefetcher on L2 misses.  0 disables it (the
    # paper's machine has none); prefetched lines start verification
    # early, which narrows the authentication-policy gaps.
    prefetch_degree: int = 0
    itlb_entries: int = 128
    dtlb_entries: int = 128
    tlb_associativity: int = 4
    tlb_miss_latency: int = 30
    page_bytes: int = 4096
    seed: int = 2006

    def __post_init__(self):
        if self.l2.line_bytes % self.l1d.line_bytes:
            raise ConfigError("L2 line must be a multiple of the L1 line")

    def with_l2_size(self, size_bytes):
        """Return a copy with the L2 resized (latency follows Table 3)."""
        return replace(self, l2=l2_config(size_bytes))

    def with_ruu(self, entries):
        """Return a copy with a different RUU size (Section 5.3.2)."""
        return replace(self, core=replace(self.core, ruu_entries=entries))

    def with_secure(self, **kwargs):
        """Return a copy with secure-engine fields replaced."""
        return replace(self, secure=replace(self.secure, **kwargs))

    def for_policy(self, policy):
        """The configuration ``policy``'s run effectively has
        (:meth:`SecureConfig.effective` applied to its terms)."""
        secure = self.secure.effective(policy.authentication,
                                       policy.obfuscation)
        return self if secure is self.secure else replace(self,
                                                          secure=secure)


def table3_parameters(config=None):
    """Render the Table 3 parameter dump for reports."""
    config = config or SimConfig()
    dram = config.dram
    return [
        ("Frequency", "1.0 GHz (1 cycle == 1 ns)"),
        ("Fetch/Decode width", str(config.core.fetch_width)),
        ("Issue/Commit width", str(config.core.issue_width)),
        ("L1 I-Cache", "DM, 16KB, 32B line"),
        ("L1 D-Cache", "DM, 16KB, 32B line"),
        ("L2 Cache", "4way, unified, 64B line, write-back, %dKB"
         % (config.l2.size_bytes // 1024)),
        ("L1 latency", "%d cycle" % config.l1d.latency),
        ("L2 latency", "%d cycles" % config.l2.latency),
        ("I-TLB", "%d-way, %d entries" % (config.tlb_associativity,
                                          config.itlb_entries)),
        ("D-TLB", "%d-way, %d entries" % (config.tlb_associativity,
                                          config.dtlb_entries)),
        ("RUU", "%d entries" % config.core.ruu_entries),
        ("Memory bus", "200 MHz, %dB wide" % dram.bus_width_bytes),
        ("CAS latency", "%d mem bus clocks" % dram.cas_bus_clocks),
        ("Precharge (RP)", "%d mem bus clocks" % dram.rp_bus_clocks),
        ("RAS-to-CAS (RCD)", "%d mem bus clocks" % dram.rcd_bus_clocks),
        ("Decryption latency", "%d ns" % config.secure.decrypt_latency),
        ("MAC latency", "%d ns" % config.secure.hmac_latency),
    ]
