//! The DPU proxy (worker) process.
//!
//! One proxy serves every host rank mapped to it via the paper's formula
//! `proxy_local_rank = host_rank % num_proxies_per_dpu`. It is a pure
//! event loop — the "progress engine" of paper Algorithm 1 — that:
//!
//! * matches Basic-primitive RTS/RTR control messages in send/receive
//!   queues keyed by `(src, dst, tag)` (paper Fig. 8), then moves the data
//!   either via cross-GVMI (direct host→host RDMA on behalf of the host)
//!   or via its staging buffers;
//! * caches cross-registrations in the DPU-side array-of-BSTs cache;
//! * stores group-request metadata (paper §VII-D) and executes group
//!   generations entry by entry, suspending at `Local_barrier` points and
//!   resuming from the progress engine when completions/arrivals land —
//!   the paper's deadlock-avoidance rule ("break from the function to the
//!   progress engine").
//!
//! **Ordering deviation from Algorithm 1, documented:** the paper orders
//! post-barrier entries by polling *barrier counters* written by peer
//! proxies. We deliver a per-write arrival notification to the destination
//! proxy at data-arrival time (the moral equivalent of the completion
//! counter RDMA'd alongside the payload) and gate barriers on those
//! arrivals; the `BarrierCntr` writes are still sent so the synchronization
//! traffic is modelled, but a missing counter cannot wedge a pattern whose
//! source side recorded no barrier.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use rdma::{ClusterCtx, EpId, MrKey, NetMsg, VAddr};
use simnet::{Payload, Pid, ProcessCtx};

use crate::config::{DataPath, OffloadConfig, TenantId};
use crate::events::{CacheSide, CtrlKind, HealthPath, PathKind, ProtoEvent};
use crate::health::{BreakerEvent, HealthEngine, Route};
use crate::messages::{CtrlMsg, GroupKey, WireEntry, WRID_OFF_PROXY};
use crate::reg_cache::RankAddrCache;
use crate::reliable::{backoff_delay_from, FaultRng, ReliableLink, ReqOrigin};

/// Decode a control-message payload without panicking: a malformed or
/// foreign message is surfaced as `None` so the caller can count and skip
/// it instead of taking the whole simulation down.
fn decode_ctrl(body: Payload) -> Option<CtrlMsg> {
    crate::profile_scope!("ctrl_decode");
    body.downcast::<CtrlMsg>().ok().map(|b| *b)
}

/// One tenant's cross-registration cache: budgeted per tenant on
/// multi-tenant rosters (eviction isolation), unbounded otherwise —
/// the pre-multi-tenant layout.
fn fresh_cross_cache(cfg: &OffloadConfig, world: usize) -> RankAddrCache<(MrKey, MrKey)> {
    if cfg.multi_tenant() && cfg.cache_budget > 0 {
        RankAddrCache::with_capacity(world, cfg.cache_budget)
    } else {
        RankAddrCache::new(world)
    }
}

#[allow(dead_code)] // tag/src_pid mirror the wire format
struct RtsInfo {
    src_rank: usize,
    tag: u64,
    addr: VAddr,
    len: u64,
    mkey: Option<MrKey>,
    src_rkey: Option<MrKey>,
    src_req: usize,
    src_pid: Pid,
    msg_id: u64,
    /// Sender-computed payload CRC32 (present only on payload-fault
    /// plans; carried through so every hop can be verified).
    crc: Option<u32>,
    /// Tenant the posting rank belongs to (0 on single-tenant rosters;
    /// per-tenant descriptor-share accounting).
    tenant: TenantId,
}

#[allow(dead_code)] // dst_pid mirrors the wire format
struct RtrInfo {
    dst_rank: usize,
    addr: VAddr,
    len: u64,
    rkey: MrKey,
    dst_req: usize,
    dst_pid: Pid,
    msg_id: u64,
    /// Tenant the posting rank belongs to (see [`RtsInfo::tenant`]).
    tenant: TenantId,
}

enum Completion {
    BasicPair {
        src_rank: usize,
        src_req: usize,
        dst_rank: usize,
        dst_req: usize,
        src_msg_id: u64,
        dst_msg_id: u64,
        /// Staging buffer `(addr, key, alloc len)` to release into the
        /// bounded free pool once the transfer settles (`None` on the
        /// GVMI path and in unbounded staging mode).
        staged: Option<(VAddr, MrKey, u64)>,
    },
    /// One-sided operation: only the origin gets a FIN.
    OneSided {
        src_rank: usize,
        src_req: usize,
        msg_id: u64,
    },
    /// Staging path, hop 1 done: the payload has been pulled into DPU
    /// memory; forward it. The buffer rides along so hop 2 (and the
    /// bounded pool) never consults the assignment map.
    StagingRead {
        pair: Box<(RtsInfo, RtrInfo)>,
        buf: (VAddr, MrKey),
    },
    GroupSend {
        key: GroupKey,
        gen: u64,
    },
    /// Staging path, group entry pulled into DPU memory.
    GroupStageRead {
        key: GroupKey,
        gen: u64,
        entry_idx: usize,
    },
}

/// Everything needed to verify one posted RDMA operation end-to-end and
/// re-post it if the landed bytes fail the CRC check. Tracked per wrid
/// only on payload-fault plans — clean runs never allocate one.
struct WriteCtx {
    /// Expected CRC32 of the payload, computed by the owning host at
    /// post (or wire-build) time.
    crc: u32,
    /// Transfer id the operation belongs to (event attribution).
    msg_id: u64,
    /// Data path of the original post (re-used verbatim on re-post).
    path: PathKind,
    /// RDMA READ (verify the local side) vs WRITE (verify the remote).
    is_read: bool,
    local: (EpId, VAddr, MrKey),
    remote: (EpId, VAddr, MrKey),
    len: u64,
    /// Delivery attempts so far (1 = the original post).
    attempt: u32,
    /// Group data writes: the arrival marker for the destination proxy,
    /// sent once the landed payload verifies.
    arrival: Option<(EpId, CtrlMsg)>,
}

struct CachedGroup {
    entries: Vec<WireEntry>,
    /// Cross-registered mkey2 per entry (GVMI path sends).
    mkey2: Vec<Option<MrKey>>,
    /// Staging buffer per entry (staging path sends).
    staging: Vec<Option<(VAddr, MrKey)>>,
    host_pid: Pid,
}

struct Instance {
    key: GroupKey,
    gen: u64,
    cursor: usize,
    outstanding: usize,
    barriers: u64,
    /// `(dst_rank, dst_req_id)` of sends since the last barrier.
    send_set: BTreeSet<(usize, usize)>,
    /// Barrier counters already written for the barrier at `cursor`.
    barrier_written: bool,
    done: bool,
    /// This generation's payload CRCs, index-aligned with the cached
    /// entries (send entries only; payload-fault runs started by a
    /// `GroupExec`). `None`: the entries' own CRCs are current, having
    /// arrived with this generation's `GroupPacket`.
    crcs: Option<Vec<u32>>,
}

/// Proxy bookkeeping. Every container here is order-stable (`BTreeMap` /
/// `BTreeSet`): the event loop iterates some of them, and hash-order
/// iteration would make message-matching order depend on the hasher —
/// the exact nondeterminism the schedule explorer exists to rule out
/// (and that `xtask lint` bans from these paths).
/// Arrived wire-entry msg-ids per sender `(src_rank, tag)` within one
/// group instance generation.
type ArrivalSets = BTreeMap<(usize, u64), BTreeSet<u64>>;

struct ProxyState {
    send_q: BTreeMap<(usize, usize, u64), VecDeque<RtsInfo>>,
    recv_q: BTreeMap<(usize, usize, u64), VecDeque<RtrInfo>>,
    /// Staging-buffer assignment per `(src_rank, addr, len)`.
    stage_assign: BTreeMap<(usize, u64, u64), (VAddr, MrKey)>,
    inflight: BTreeMap<u64, Completion>,
    next_wr: u64,
    /// Cross-registration caches, one GVMI namespace per tenant. A
    /// single-tenant roster keeps exactly one (key 0) cache — the
    /// pre-multi-tenant layout. Under a multi-tenant roster with a
    /// cache budget each namespace is budgeted independently, so one
    /// tenant's working set can never evict another's registrations.
    cross_caches: BTreeMap<TenantId, RankAddrCache<(MrKey, MrKey)>>,
    groups: BTreeMap<GroupKey, CachedGroup>,
    instances: Vec<Instance>,
    /// Data arrivals per `(group instance, gen)`, keyed inside by
    /// `(src_rank, tag)`. The inner sets hold the wire-entry msg_ids that
    /// arrived, so a replayed data write (proxy-restart recovery) cannot
    /// inflate the count and release a barrier early.
    arrivals: BTreeMap<(GroupKey, u64), ArrivalSets>,
    /// Staged group send entries: `(key, gen, entry index)`.
    group_staged: BTreeSet<(GroupKey, u64, usize)>,
    /// Staging reads already posted: `(key, gen, entry index)`.
    stage_read_posted: BTreeSet<(GroupKey, u64, usize)>,
    /// Host ranks that sent `Shutdown`. A set (not a counter) so a
    /// deduplicated retransmit or a post-restart replay cannot double
    /// count one rank; survives a crash (the rank *is* done).
    shutdowns: BTreeSet<usize>,
    /// `drop_first_fin` already fired on this proxy.
    fin_dropped: bool,
    /// Reliable ctrl-plane endpoint (sender retransmission table + ack
    /// generation + receiver dedup). Dormant on fault-free plans.
    rel: ReliableLink,
    /// Dedicated RNG for cross-GVMI registration failures, separate from
    /// the link's drop/dup/delay RNG so the two fault streams don't
    /// perturb each other across plans.
    xreg_rng: FaultRng,
    /// Completion journal: transfer msg_id → completed wrid, written at
    /// FIN time. Survives a crash (modelled as write-ahead metadata in
    /// host-visible memory) so a replayed, already-completed transfer is
    /// answered with a FIN resend instead of a second data write.
    completed_msgs: BTreeMap<u64, u64>,
    /// Highest finished generation per group — the group-side completion
    /// journal. Survives a crash for the same reason.
    fin_gens: BTreeMap<GroupKey, u64>,
    /// Ctrl packets handled so far (crash trigger odometer).
    steps: u32,
    /// The plan's crash already fired on this proxy.
    crashed: bool,
    /// Entries currently queued across `send_q` (incremental, so depth
    /// reporting never walks the maps).
    send_q_len: usize,
    /// Entries currently queued across `recv_q`.
    recv_q_len: usize,
    /// Entries currently queued per tenant across both queues
    /// (descriptor-share admission; maintained only on multi-tenant
    /// rosters, empty otherwise).
    tenant_q_len: BTreeMap<TenantId, usize>,
    /// Barrier points `(key, gen, cursor)` whose first stall was already
    /// reported, so polling does not inflate the stall count.
    stalled: BTreeSet<(GroupKey, u64, usize)>,
    /// Integrity context per in-flight wrid (payload-fault plans only).
    inflight_ctx: BTreeMap<u64, WriteCtx>,
    /// Corrupt operations awaiting their backoff timer, keyed by retx
    /// token.
    data_retx: BTreeMap<u64, (WriteCtx, Completion)>,
    next_retx_token: u64,
    /// Transfer ids cancelled by their host (deadline expiry or explicit
    /// cancel). Survives a crash — a cancelled request must never
    /// complete, even through a post-restart replay.
    cancelled: BTreeSet<u64>,
    /// Bounded staging free pool, keyed by `(tenant, buffer length)`
    /// (armed by `staging_cap`; empty and unused otherwise). The
    /// tenant key partitions the pool so one tenant's churn cannot
    /// starve another's buffer reuse; single-tenant runs only ever see
    /// tenant 0, i.e. the old per-length pool.
    stage_free: BTreeMap<(TenantId, u64), Vec<(VAddr, MrKey)>>,
    /// Highest contiguous completion horizon each host has advertised
    /// (FIN-journal truncation; survives a crash with the journal).
    ack_horizons: BTreeMap<usize, u64>,
    /// Fabric health engine: per-(peer, path) circuit breakers and data
    /// retry budgets (DESIGN.md §19). Inert unless `cfg.health.enabled`.
    health: HealthEngine,
}

/// Build a proxy closure suitable for [`rdma::ClusterBuilder::run`]'s
/// `proxy_fn`, running the framework with `cfg`.
pub fn proxy_fn(
    cfg: OffloadConfig,
) -> impl Fn(usize, usize, ProcessCtx, ClusterCtx) + Send + Sync + 'static {
    move |node, idx, ctx, cluster| proxy_main(node, idx, ctx, cluster, cfg.clone())
}

/// The proxy process body. Runs until every mapped host rank sends
/// `Shutdown` and all in-flight work has drained.
///
/// The proxy is a pure reactor — receive, `handle`, `advance_all` — so
/// it runs as a task polled by the scheduler (see
/// [`ProcessCtx::continue_as_task`]): a proxy turn is a function call on
/// the scheduler's thread, not two OS-thread switches. Only this first
/// call runs on the process thread, which exits once the task parks.
pub fn proxy_main(
    node: usize,
    idx: usize,
    ctx: ProcessCtx,
    cluster: ClusterCtx,
    cfg: OffloadConfig,
) {
    ctx.clone()
        .continue_as_task(proxy_task(node, idx, ctx, cluster, cfg));
}

async fn proxy_task(
    node: usize,
    idx: usize,
    ctx: ProcessCtx,
    cluster: ClusterCtx,
    cfg: OffloadConfig,
) {
    let spec = cluster.spec().clone();
    let mapped_hosts = (0..spec.ppn)
        .filter(|l| (node * spec.ppn + l) % spec.proxies_per_dpu == idx)
        .count();
    let my_ep = cluster.proxy_ep(node, idx);
    let mut st = ProxyState {
        send_q: BTreeMap::new(),
        recv_q: BTreeMap::new(),
        stage_assign: BTreeMap::new(),
        inflight: BTreeMap::new(),
        next_wr: 0,
        // Tenant 0 always exists so a run that never cross-registers
        // still drains the same (zero) cache stats it always has.
        cross_caches: BTreeMap::from([(0, fresh_cross_cache(&cfg, spec.world_size()))]),
        groups: BTreeMap::new(),
        instances: Vec::new(),
        arrivals: BTreeMap::new(),
        group_staged: BTreeSet::new(),
        stage_read_posted: BTreeSet::new(),
        shutdowns: BTreeSet::new(),
        fin_dropped: false,
        rel: ReliableLink::new(
            cfg.fault,
            cfg.ctrl_knobs(false),
            cfg.ctrl_bytes,
            true,
            my_ep,
        ),
        xreg_rng: FaultRng::new(cfg.fault.seed, my_ep.index() as u64 + 0x1000),
        completed_msgs: BTreeMap::new(),
        fin_gens: BTreeMap::new(),
        steps: 0,
        crashed: false,
        send_q_len: 0,
        recv_q_len: 0,
        tenant_q_len: BTreeMap::new(),
        stalled: BTreeSet::new(),
        inflight_ctx: BTreeMap::new(),
        data_retx: BTreeMap::new(),
        next_retx_token: 0,
        cancelled: BTreeSet::new(),
        stage_free: BTreeMap::new(),
        ack_horizons: BTreeMap::new(),
        health: HealthEngine::new(cfg.health, cfg.fault.seed, my_ep.index() as u64 + 0x2000),
    };
    let p = Proxy {
        ctx: &ctx,
        cluster: &cluster,
        cfg: &cfg,
        my_ep,
    };
    loop {
        if st.shutdowns.len() == mapped_hosts && p.quiescent(&st) {
            break;
        }
        // The proxy's mailbox carries fabric traffic only; a foreign
        // payload is skipped, never fatal.
        let Ok(msg) = ctx.recv_async().await.downcast::<NetMsg>() else {
            continue;
        };
        p.handle(&mut st, *msg);
        p.advance_all(&mut st);
    }
    for cache in st.cross_caches.values() {
        let (h, m, s) = cache.stats();
        ctx.stat_incr("offload.gvmi_cache.dpu.hit", h);
        ctx.stat_incr("offload.gvmi_cache.dpu.miss", m);
        ctx.stat_incr("offload.gvmi_cache.dpu.stale", s);
        ctx.stat_incr("offload.gvmi_cache.dpu.evict", cache.evictions());
    }
}

struct Proxy<'a> {
    ctx: &'a ProcessCtx,
    cluster: &'a ClusterCtx,
    cfg: &'a OffloadConfig,
    my_ep: EpId,
}

impl Proxy<'_> {
    fn quiescent(&self, st: &ProxyState) -> bool {
        st.inflight.is_empty()
            && st.instances.iter().all(|i| i.done)
            && st.send_q.values().all(|q| q.is_empty())
            && st.recv_q.values().all(|q| q.is_empty())
            && st.data_retx.is_empty()
            && !st.rel.has_pending()
    }

    fn handle(&self, st: &mut ProxyState, msg: NetMsg) {
        let is_packet = matches!(msg, NetMsg::Packet(_));
        let decoded = match msg {
            NetMsg::Packet(p) => decode_ctrl(p.body),
            NetMsg::Notify(b) => decode_ctrl(b),
            NetMsg::Cqe(c) => {
                self.on_cqe(st, c.wrid);
                return;
            }
        };
        let Some(body) = decoded else {
            // Cross-rank payload that is not a control message: count it
            // and move on rather than crashing the proxy.
            self.ctx.stat_incr("offload.proxy.bad_ctrl", 1);
            self.ctx.emit(&ProtoEvent::CtrlDropped {
                at_proxy: true,
                kind: CtrlKind::Unknown,
                msg_id: 0,
            });
            return;
        };
        // Crash injection: the proxy "dies" on receipt of its
        // crash_at_step'th ctrl packet, instantly restarts with all
        // volatile state lost, and processes the triggering message as
        // the first of its new life.
        if is_packet {
            st.steps += 1;
            if !st.crashed
                && self.cfg.fault.crash_at_step > 0
                && st.steps >= self.cfg.fault.crash_at_step
            {
                st.crashed = true;
                self.crash_restart(st);
            }
        }
        // Reliability envelopes (present only on armed fault plans).
        let body = match body {
            CtrlMsg::Seq {
                seq,
                from,
                from_ep,
                epoch,
                inner,
            } => {
                let fab = self.cluster.fabric();
                match st
                    .rel
                    .on_seq(self.ctx, fab, seq, from, from_ep, epoch, *inner)
                {
                    Some(m) => m,
                    None => return, // duplicate delivery
                }
            }
            CtrlMsg::Ack { seq } => {
                st.rel.on_ack(seq);
                return;
            }
            CtrlMsg::RetxTick { seq } => {
                // Proxy-originated ctrl (FINs, restart notices) has no
                // request slot to fail; abandonment is counted and
                // emitted by the link itself.
                let _ = st.rel.on_tick(self.ctx, self.cluster.fabric(), seq);
                return;
            }
            other => other,
        };
        match body {
            CtrlMsg::Rts {
                src_rank,
                dst_rank,
                tag,
                addr,
                len,
                mkey,
                src_rkey,
                src_req,
                src_pid,
                msg_id,
                crc,
                ack_horizon,
                tenant,
            } => {
                if let Some(&wrid) = st.completed_msgs.get(&msg_id) {
                    // Replayed send whose data write completed in a
                    // previous life: only the FIN can have been lost.
                    self.resend_fin(
                        st,
                        src_rank,
                        src_req,
                        wrid,
                        crate::events::FinKind::Send,
                        msg_id,
                    );
                    return;
                }
                if self.reaped(st, msg_id) || self.dup_basic(st, CtrlKind::Rts, msg_id) {
                    return;
                }
                self.note_horizon(st, src_rank, ack_horizon);
                let key = (src_rank, dst_rank, tag);
                let would_match = st.recv_q.get(&key).is_some_and(|q| !q.is_empty());
                if !would_match && self.admission_refused(st, msg_id, tenant) {
                    self.send_ctrl(
                        st,
                        self.cluster.host_ep(src_rank),
                        CtrlMsg::QueueFull { msg_id },
                    );
                    self.ctx.stat_incr("offload.ctrl.host_dpu", 1);
                    return;
                }
                let _ = self.cluster.fabric().charge_cpu(
                    self.ctx,
                    self.my_ep,
                    self.cfg.proxy_entry_overhead,
                );
                self.ctx.stat_incr("offload.proxy.rts", 1);
                self.ctx.emit(&ProtoEvent::RtsAtProxy {
                    src_rank,
                    dst_rank,
                    tag,
                    msg_id,
                });
                let rts = RtsInfo {
                    src_rank,
                    tag,
                    addr,
                    len,
                    mkey,
                    src_rkey,
                    src_req,
                    src_pid,
                    msg_id,
                    crc,
                    tenant,
                };
                if let Some(rtr) = st.recv_q.get_mut(&key).and_then(|q| q.pop_front()) {
                    st.recv_q_len -= 1;
                    self.tenant_q_decr(st, rtr.tenant);
                    self.pair_matched(st, rts, rtr);
                } else {
                    st.send_q.entry(key).or_default().push_back(rts);
                    st.send_q_len += 1;
                    self.tenant_q_incr(st, tenant);
                    self.emit_queue_depth(st);
                }
            }
            CtrlMsg::Rtr {
                src_rank,
                dst_rank,
                tag,
                addr,
                len,
                rkey,
                dst_req,
                dst_pid,
                msg_id,
                ack_horizon,
                tenant,
            } => {
                if let Some(&wrid) = st.completed_msgs.get(&msg_id) {
                    self.resend_fin(
                        st,
                        dst_rank,
                        dst_req,
                        wrid,
                        crate::events::FinKind::Recv,
                        msg_id,
                    );
                    return;
                }
                if self.reaped(st, msg_id) || self.dup_basic(st, CtrlKind::Rtr, msg_id) {
                    return;
                }
                self.note_horizon(st, dst_rank, ack_horizon);
                let key = (src_rank, dst_rank, tag);
                let would_match = st.send_q.get(&key).is_some_and(|q| !q.is_empty());
                if !would_match && self.admission_refused(st, msg_id, tenant) {
                    self.send_ctrl(
                        st,
                        self.cluster.host_ep(dst_rank),
                        CtrlMsg::QueueFull { msg_id },
                    );
                    self.ctx.stat_incr("offload.ctrl.host_dpu", 1);
                    return;
                }
                let _ = self.cluster.fabric().charge_cpu(
                    self.ctx,
                    self.my_ep,
                    self.cfg.proxy_entry_overhead,
                );
                self.ctx.stat_incr("offload.proxy.rtr", 1);
                self.ctx.emit(&ProtoEvent::RtrAtProxy {
                    src_rank,
                    dst_rank,
                    tag,
                    msg_id,
                });
                let rtr = RtrInfo {
                    dst_rank,
                    addr,
                    len,
                    rkey,
                    dst_req,
                    dst_pid,
                    msg_id,
                    tenant,
                };
                if let Some(rts) = st.send_q.get_mut(&key).and_then(|q| q.pop_front()) {
                    st.send_q_len -= 1;
                    self.tenant_q_decr(st, rts.tenant);
                    self.pair_matched(st, rts, rtr);
                } else {
                    st.recv_q.entry(key).or_default().push_back(rtr);
                    st.recv_q_len += 1;
                    self.tenant_q_incr(st, tenant);
                    self.emit_queue_depth(st);
                }
            }
            CtrlMsg::GroupPacket {
                key,
                gen,
                entries,
                host_pid,
            } => {
                self.ctx.stat_incr("offload.proxy.group_packets", 1);
                self.install_group(st, key, entries, host_pid);
                self.start_instance(st, key, gen, None);
            }
            CtrlMsg::GroupExec { key, gen, crcs } => {
                if !st.groups.contains_key(&key) {
                    // A retransmitted exec that raced a proxy restart: the
                    // group metadata died with the old life. The restart
                    // notice makes the host replay the full GroupPacket,
                    // so this stale exec is safe to drop.
                    self.ctx.stat_incr("offload.proxy.stale_exec", 1);
                    return;
                }
                let _ = self.cluster.fabric().charge_cpu(
                    self.ctx,
                    self.my_ep,
                    self.cfg.proxy_entry_overhead,
                );
                self.ctx.stat_incr("offload.proxy.group_execs", 1);
                self.start_instance(st, key, gen, crcs);
            }
            CtrlMsg::GroupArrival {
                src_rank,
                tag,
                dst_key,
                gen,
                msg_id,
            } => {
                if st.fin_gens.get(&dst_key).copied().unwrap_or(0) >= gen {
                    // Late (replayed) arrival for a generation that
                    // already finished; recording it would only leak.
                    return;
                }
                st.arrivals
                    .entry((dst_key, gen))
                    .or_default()
                    .entry((src_rank, tag))
                    .or_default()
                    .insert(msg_id);
            }
            CtrlMsg::Put {
                src_rank,
                addr,
                len,
                mkey,
                src_rkey,
                dst_rank,
                dst_addr,
                dst_rkey,
                src_req,
                src_pid,
                msg_id,
            } => {
                if let Some(&wrid) = st.completed_msgs.get(&msg_id) {
                    self.resend_fin(
                        st,
                        src_rank,
                        src_req,
                        wrid,
                        crate::events::FinKind::Send,
                        msg_id,
                    );
                    return;
                }
                if self.reaped(st, msg_id) || self.dup_basic(st, CtrlKind::Put, msg_id) {
                    return;
                }
                let _ = self.cluster.fabric().charge_cpu(
                    self.ctx,
                    self.my_ep,
                    self.cfg.proxy_entry_overhead,
                );
                self.ctx.stat_incr("offload.proxy.puts", 1);
                // A put is a pre-matched pair: synthesize the RTS/RTR and
                // run the normal data movement (either path). The checker
                // sees the synthesized pair too, keeping the matching
                // invariant uniform across two-sided and one-sided paths.
                // Both synthetic sides carry the put's transfer id.
                self.ctx.emit(&ProtoEvent::RtsAtProxy {
                    src_rank,
                    dst_rank,
                    tag: 0,
                    msg_id,
                });
                self.ctx.emit(&ProtoEvent::RtrAtProxy {
                    src_rank,
                    dst_rank,
                    tag: 0,
                    msg_id,
                });
                let rts = RtsInfo {
                    src_rank,
                    tag: 0,
                    addr,
                    len,
                    mkey,
                    src_rkey,
                    src_req,
                    src_pid,
                    msg_id,
                    // One-sided operations are exempt from end-to-end
                    // integrity (documented relaxation: no receive side
                    // exists to re-derive the expected CRC from).
                    crc: None,
                    tenant: self.cfg.tenant_of(src_rank),
                };
                let rtr = RtrInfo {
                    dst_rank,
                    addr: dst_addr,
                    len,
                    rkey: dst_rkey,
                    dst_req: usize::MAX, // no receive-side request
                    dst_pid: src_pid,
                    msg_id,
                    tenant: self.cfg.tenant_of(dst_rank),
                };
                self.pair_matched(st, rts, rtr);
            }
            CtrlMsg::Get {
                src_rank,
                local_addr,
                len,
                local_mkey,
                remote_rank,
                remote_addr,
                remote_rkey,
                src_req,
                msg_id,
                ..
            } => {
                if let Some(&wrid) = st.completed_msgs.get(&msg_id) {
                    self.resend_fin(
                        st,
                        src_rank,
                        src_req,
                        wrid,
                        crate::events::FinKind::Send,
                        msg_id,
                    );
                    return;
                }
                if self.reaped(st, msg_id) || self.dup_basic(st, CtrlKind::Get, msg_id) {
                    return;
                }
                let _ = self.cluster.fabric().charge_cpu(
                    self.ctx,
                    self.my_ep,
                    self.cfg.proxy_entry_overhead,
                );
                self.ctx.stat_incr("offload.proxy.gets", 1);
                assert_eq!(
                    self.cfg.data_path,
                    DataPath::Gvmi,
                    "one-sided get requires the GVMI data path"
                );
                // Cross-register the origin's destination buffer, then pull
                // the remote symmetric memory straight into it.
                let mkey2 = self.cross_reg_cached(st, src_rank, local_addr, len, local_mkey);
                let wr = self.next_wrid(st);
                self.ctx.emit(&ProtoEvent::Mkey2Used { mkey2 });
                self.ctx.emit(&ProtoEvent::WritePosted {
                    wrid: wr,
                    bytes: len,
                    path: PathKind::CrossGvmi,
                    msg_id,
                });
                st.inflight.insert(
                    wr,
                    Completion::OneSided {
                        src_rank,
                        src_req,
                        msg_id,
                    },
                );
                self.cluster
                    .fabric()
                    .rdma_read(
                        self.ctx,
                        self.my_ep,
                        (self.cluster.host_ep(src_rank), local_addr, mkey2),
                        (self.cluster.host_ep(remote_rank), remote_addr, remote_rkey),
                        len,
                        Some(wr),
                    )
                    .expect("one-sided get read");
            }
            CtrlMsg::BarrierCntr { .. } => {
                // Synchronization traffic modelled on the wire; ordering is
                // enforced by arrivals (see module docs).
                self.ctx.stat_incr("offload.proxy.barrier_cntr", 1);
            }
            CtrlMsg::Shutdown { rank } => {
                st.shutdowns.insert(rank);
            }
            CtrlMsg::Cancel { msg_id } => {
                // Suppress every future match for this transfer id, then
                // reap any descriptor already queued for it. The host has
                // already failed the request; completing it now would
                // hand bytes to a caller that gave up on them.
                st.cancelled.insert(msg_id);
                let mut reaped = 0usize;
                let mut reaped_tenants = Vec::new();
                for q in st.send_q.values_mut() {
                    q.retain(|r| {
                        if r.msg_id != msg_id {
                            return true;
                        }
                        reaped += 1;
                        reaped_tenants.push(r.tenant);
                        false
                    });
                }
                st.send_q_len -= reaped;
                let mut rreaped = 0usize;
                for q in st.recv_q.values_mut() {
                    q.retain(|r| {
                        if r.msg_id != msg_id {
                            return true;
                        }
                        rreaped += 1;
                        reaped_tenants.push(r.tenant);
                        false
                    });
                }
                st.recv_q_len -= rreaped;
                for t in reaped_tenants {
                    self.tenant_q_decr(st, t);
                }
                if reaped + rreaped > 0 {
                    self.ctx
                        .stat_incr("offload.cancel.reaped", (reaped + rreaped) as u64);
                    self.ctx.emit(&ProtoEvent::ReqReaped { msg_id });
                }
            }
            CtrlMsg::DataRetxTick { token } => {
                // Backoff expired for a corrupt payload: re-post it. A
                // missing token means a crash wiped the retx table; the
                // host's post-restart replay re-drives the transfer.
                if let Some((wctx, completion)) = st.data_retx.remove(&token) {
                    self.repost(st, wctx, completion);
                }
            }
            other => panic!("unexpected control message at proxy: {other:?}"),
        }
    }

    /// Send a ctrl message to `to`, through the reliable link when the
    /// run's fault plan arms it. On a fault-free plan this is the exact
    /// pre-reliability direct send, so clean baselines do not move.
    fn send_ctrl(&self, st: &mut ProxyState, to: EpId, msg: CtrlMsg) {
        crate::profile_scope!("ctrl_encode");
        if self.cfg.fault.reliable() {
            st.rel.send(
                self.ctx,
                self.cluster.fabric(),
                to,
                self.cfg.ctrl_bytes,
                msg,
                ReqOrigin::Free,
            );
        } else {
            self.cluster
                .fabric()
                .send_packet(self.ctx, self.my_ep, to, self.cfg.ctrl_bytes, Box::new(msg))
                .expect("proxy ctrl send");
        }
    }

    /// Journal hit: a replayed request whose data movement completed in a
    /// previous life. The payload is already placed — only the FIN can
    /// have been lost — so resend it without re-running the transfer (and
    /// without re-emitting Rts/Rtr protocol events, keeping the checker's
    /// flow accounting balanced).
    fn resend_fin(
        &self,
        st: &mut ProxyState,
        rank: usize,
        req: usize,
        wrid: u64,
        kind: crate::events::FinKind,
        msg_id: u64,
    ) {
        let credit = self.fin_credit(st, rank);
        let msg = match kind {
            crate::events::FinKind::Recv => CtrlMsg::FinRecv {
                req,
                msg_id,
                credit,
            },
            _ => CtrlMsg::FinSend {
                req,
                msg_id,
                credit,
            },
        };
        self.send_ctrl(st, self.cluster.host_ep(rank), msg);
        self.ctx.emit(&ProtoEvent::FinSent {
            rank,
            req,
            wrid,
            kind,
            msg_id,
        });
        self.ctx.stat_incr("offload.ctrl.host_dpu", 1);
        self.ctx.stat_incr("offload.reliable.fin_resends", 1);
    }

    /// Is a basic transfer with this msg_id already queued or in flight?
    /// Guards against a retransmitted Rts/Rtr racing the host's
    /// post-restart replay of the same request.
    fn basic_active(&self, st: &ProxyState, msg_id: u64) -> bool {
        st.send_q.values().flatten().any(|r| r.msg_id == msg_id)
            || st.recv_q.values().flatten().any(|r| r.msg_id == msg_id)
            || st.inflight.values().any(|c| match c {
                Completion::BasicPair {
                    src_msg_id,
                    dst_msg_id,
                    ..
                } => *src_msg_id == msg_id || *dst_msg_id == msg_id,
                Completion::OneSided { msg_id: m, .. } => *m == msg_id,
                Completion::StagingRead { pair, .. } => {
                    pair.0.msg_id == msg_id || pair.1.msg_id == msg_id
                }
                _ => false,
            })
    }

    /// Duplicate-drop bookkeeping around [`Self::basic_active`]: true
    /// means the message was a duplicate and has been counted.
    fn dup_basic(&self, st: &ProxyState, kind: CtrlKind, msg_id: u64) -> bool {
        if !self.basic_active(st, msg_id) {
            return false;
        }
        self.ctx.stat_incr("offload.reliable.dups_dropped", 1);
        self.ctx.emit(&ProtoEvent::CtrlDuplicateDropped {
            at_proxy: true,
            kind,
            msg_id,
        });
        true
    }

    /// Suppress (and count) a descriptor for a transfer its host already
    /// cancelled.
    fn reaped(&self, st: &ProxyState, msg_id: u64) -> bool {
        if !st.cancelled.contains(&msg_id) {
            return false;
        }
        self.ctx.stat_incr("offload.cancel.reaped", 1);
        self.ctx.emit(&ProtoEvent::ReqReaped { msg_id });
        true
    }

    /// Record the completion horizon a host piggybacked on its ctrl
    /// message (journal truncation; inert unless the cap is armed).
    fn note_horizon(&self, st: &mut ProxyState, rank: usize, ack_horizon: u64) {
        if self.cfg.journal_cap == 0 {
            return;
        }
        let h = st.ack_horizons.entry(rank).or_insert(0);
        *h = (*h).max(ack_horizon);
    }

    /// Track per-tenant queued-descriptor counts (multi-tenant rosters
    /// only; single-tenant runs never touch the map).
    fn tenant_q_incr(&self, st: &mut ProxyState, tenant: TenantId) {
        if self.cfg.multi_tenant() {
            *st.tenant_q_len.entry(tenant).or_insert(0) += 1;
        }
    }

    fn tenant_q_decr(&self, st: &mut ProxyState, tenant: TenantId) {
        if self.cfg.multi_tenant() {
            if let Some(n) = st.tenant_q_len.get_mut(&tenant) {
                *n = n.saturating_sub(1);
            }
        }
    }

    /// Queued descriptors currently charged to `tenant`.
    fn tenant_q(&self, st: &ProxyState, tenant: TenantId) -> usize {
        st.tenant_q_len.get(&tenant).copied().unwrap_or(0)
    }

    /// Would admitting one more queued descriptor bust the configured
    /// cap? Counts both queues against one budget — the paper's worker
    /// owns a single descriptor pool. Under a multi-tenant roster the
    /// pool is additionally partitioned into weighted per-tenant shares
    /// ([`OffloadConfig::tenant_share`]), so a flooding tenant fills
    /// only its own share and well-behaved tenants keep admission.
    /// Emits the refusal events; the caller sends the `QueueFull` nack
    /// (destination differs per side).
    fn admission_refused(&self, st: &ProxyState, msg_id: u64, tenant: TenantId) -> bool {
        if self.cfg.queue_cap == 0 {
            return false;
        }
        let global_full = st.send_q_len + st.recv_q_len >= self.cfg.queue_cap;
        let share_full =
            self.cfg.multi_tenant() && self.tenant_q(st, tenant) >= self.cfg.tenant_share(tenant);
        if !global_full && !share_full {
            return false;
        }
        self.ctx.stat_incr("offload.credit.queue_full", 1);
        self.ctx.emit(&ProtoEvent::QueueFullNack { msg_id });
        true
    }

    /// Free descriptor-queue slots to piggyback on an outgoing FIN
    /// (always 0 when the cap is unarmed, keeping clean wires
    /// identical). Per-tenant on multi-tenant rosters: the credit a
    /// host sees never exceeds what its own tenant's share could
    /// actually admit, so one tenant's free slots cannot tempt another
    /// tenant's host into a burst of doomed re-posts.
    fn fin_credit(&self, st: &ProxyState, rank: usize) -> u32 {
        if self.cfg.queue_cap == 0 {
            return 0;
        }
        let global = self
            .cfg
            .queue_cap
            .saturating_sub(st.send_q_len + st.recv_q_len);
        if !self.cfg.multi_tenant() {
            return global as u32;
        }
        let tenant = self.cfg.tenant_of(rank);
        let share_free = self
            .cfg
            .tenant_share(tenant)
            .saturating_sub(self.tenant_q(st, tenant));
        global.min(share_free) as u32
    }

    /// Return a settled transfer's staging buffer to the bounded free
    /// pool of the owning tenant. `None` (GVMI path, or unbounded
    /// staging mode where buffers live in the assignment map) is a
    /// no-op; a pool already at its cap drops the buffer instead of
    /// growing. `staging_cap` bounds each `(tenant, length)` pool, so
    /// a flooding tenant's churn is confined to its own partition.
    fn release_staged(
        &self,
        st: &mut ProxyState,
        tenant: TenantId,
        staged: Option<(VAddr, MrKey, u64)>,
    ) {
        let Some((buf, key, len)) = staged else {
            return;
        };
        if self.cfg.staging_cap == 0 {
            return;
        }
        let pool = st.stage_free.entry((tenant, len)).or_default();
        if pool.len() < self.cfg.staging_cap {
            pool.push((buf, key));
        } else {
            self.ctx.stat_incr("offload.staging.dropped", 1);
        }
    }

    /// Bound the durable FIN journal: once it exceeds the cap, drop every
    /// entry at or below its owning host's advertised completion horizon
    /// (those transfers can never be replayed — the host saw their FINs).
    /// Emits a size sample per settle so tests can track the high-water
    /// mark. No-op unless the cap is armed.
    ///
    /// Under a multi-tenant roster the cap is applied per tenant
    /// (`msg_id >> 32` names the owning rank, hence its tenant): a
    /// flooding tenant triggers truncation of only its own entries, and
    /// a quiet tenant's journal is never scanned on the flooder's
    /// account. Truncation only ever drops entries the owning host has
    /// acknowledged, so cross-tenant recovery safety is unconditional.
    fn truncate_journal(&self, st: &mut ProxyState) {
        if self.cfg.journal_cap == 0 {
            return;
        }
        crate::profile_scope!("journal_truncate");
        if self.cfg.multi_tenant() {
            let mut per_tenant: BTreeMap<TenantId, usize> = BTreeMap::new();
            for mid in st.completed_msgs.keys() {
                let tenant = self.cfg.tenant_of((mid >> 32) as usize);
                *per_tenant.entry(tenant).or_insert(0) += 1;
            }
            let over: BTreeSet<TenantId> = per_tenant
                .into_iter()
                .filter(|&(_, n)| n > self.cfg.journal_cap)
                .map(|(t, _)| t)
                .collect();
            if !over.is_empty() {
                let horizons = &st.ack_horizons;
                let cfg = self.cfg;
                let before = st.completed_msgs.len();
                st.completed_msgs.retain(|mid, _| {
                    let rank = (mid >> 32) as usize;
                    if !over.contains(&cfg.tenant_of(rank)) {
                        return true;
                    }
                    let seq = mid & 0xFFFF_FFFF;
                    seq > horizons.get(&rank).copied().unwrap_or(0)
                });
                let dropped = (before - st.completed_msgs.len()) as u64;
                if dropped > 0 {
                    self.ctx.stat_incr("offload.journal.truncations", 1);
                    self.ctx.emit(&ProtoEvent::JournalTruncated { dropped });
                }
            }
        } else if st.completed_msgs.len() > self.cfg.journal_cap {
            let horizons = &st.ack_horizons;
            let before = st.completed_msgs.len();
            st.completed_msgs.retain(|mid, _| {
                let rank = (mid >> 32) as usize;
                let seq = mid & 0xFFFF_FFFF;
                seq > horizons.get(&rank).copied().unwrap_or(0)
            });
            let dropped = (before - st.completed_msgs.len()) as u64;
            if dropped > 0 {
                self.ctx.stat_incr("offload.journal.truncations", 1);
                self.ctx.emit(&ProtoEvent::JournalTruncated { dropped });
            }
        }
        self.ctx.emit(&ProtoEvent::JournalSize {
            len: st.completed_msgs.len() as u64,
        });
    }

    /// Crash + restart in one step (the simulated process never leaves
    /// its event loop). Volatile state — matching queues, in-flight
    /// table, caches, group metadata, running instances — is lost. The
    /// durable journals (completed transfers, finished generations,
    /// arrival sets, shutdown set, wrid odometer) survive, modelling
    /// metadata the proxy writes ahead into host-visible memory. A fresh
    /// epoch is announced to every host so they invalidate DPU-dependent
    /// cached state and replay in-flight requests.
    fn crash_restart(&self, st: &mut ProxyState) {
        for cache in st.cross_caches.values() {
            let (h, m, s) = cache.stats();
            self.ctx.stat_incr("offload.gvmi_cache.dpu.hit", h);
            self.ctx.stat_incr("offload.gvmi_cache.dpu.miss", m);
            self.ctx.stat_incr("offload.gvmi_cache.dpu.stale", s);
            self.ctx
                .stat_incr("offload.gvmi_cache.dpu.evict", cache.evictions());
        }
        st.send_q.clear();
        st.recv_q.clear();
        st.send_q_len = 0;
        st.recv_q_len = 0;
        st.tenant_q_len.clear();
        st.stage_assign.clear();
        st.inflight.clear();
        st.cross_caches =
            BTreeMap::from([(0, fresh_cross_cache(self.cfg, self.cluster.world_size()))]);
        st.groups.clear();
        st.instances.clear();
        st.group_staged.clear();
        st.stage_read_posted.clear();
        st.stalled.clear();
        // The retx table and staging pool are volatile; the cancelled
        // set and advertised horizons are durable (a cancelled request
        // must stay dead across a restart, and a stale horizon only
        // delays truncation — never loses a needed journal entry).
        st.inflight_ctx.clear();
        st.data_retx.clear();
        st.stage_free.clear();
        st.rel.reset_for_restart();
        // Pre-crash path verdicts are stale: every tracked breaker drops
        // to half-open so the first post per (peer, path) re-probes, and
        // the data retry budgets refill (DESIGN.md §19 recovery).
        if st.health.enabled() {
            st.health.reset_half_open();
        }
        let epoch = st.rel.epoch();
        self.ctx.stat_incr("offload.reliable.proxy_restarts", 1);
        self.ctx.emit(&ProtoEvent::ProxyRestarted { epoch });
        for rank in 0..self.cluster.world_size() {
            st.rel.send(
                self.ctx,
                self.cluster.fabric(),
                self.cluster.host_ep(rank),
                self.cfg.ctrl_bytes,
                CtrlMsg::ProxyRestarted {
                    proxy: self.my_ep,
                    epoch,
                },
                ReqOrigin::Free,
            );
        }
    }

    // ---- Basic primitives ----

    /// Staging buffer for a given source buffer. Unbounded mode (the
    /// default) allocates and registers once per `(src_rank, addr, len)`
    /// and keeps the assignment forever. With `staging_cap` armed the
    /// per-source map is bypassed: buffers come from a bounded free pool
    /// keyed by length and are recycled when their transfer settles, so
    /// the proxy's staging footprint is `cap × live lengths` instead of
    /// one buffer per distinct source buffer ever seen.
    fn staging_buffer_for(
        &self,
        st: &mut ProxyState,
        src_rank: usize,
        addr: VAddr,
        len: u64,
    ) -> (VAddr, MrKey) {
        let fab = self.cluster.fabric();
        if self.cfg.staging_cap > 0 {
            let tenant = self.cfg.tenant_of(src_rank);
            if let Some(b) = st.stage_free.get_mut(&(tenant, len)).and_then(|p| p.pop()) {
                self.ctx.stat_incr("offload.staging.reclaimed", 1);
                self.ctx.emit(&ProtoEvent::StagingReclaimed { len });
                return b;
            }
            let buf = fab.alloc(self.my_ep, len);
            let key = fab
                .reg_mr(self.ctx, self.my_ep, buf, len)
                .expect("staging buffer registration");
            self.ctx.stat_incr("offload.proxy.staging_buffers", 1);
            return (buf, key);
        }
        let akey = (src_rank, addr.0, len);
        if let Some(&b) = st.stage_assign.get(&akey) {
            return b;
        }
        let buf = fab.alloc(self.my_ep, len);
        let key = fab
            .reg_mr(self.ctx, self.my_ep, buf, len)
            .expect("staging buffer registration");
        st.stage_assign.insert(akey, (buf, key));
        self.ctx.stat_incr("offload.proxy.staging_buffers", 1);
        (buf, key)
    }

    fn pair_matched(&self, st: &mut ProxyState, rts: RtsInfo, rtr: RtrInfo) {
        self.ctx.emit(&ProtoEvent::PairMatched {
            src_rank: rts.src_rank,
            dst_rank: rtr.dst_rank,
            tag: rts.tag,
            send_msg_id: rts.msg_id,
            recv_msg_id: rtr.msg_id,
        });
        match self.cfg.data_path {
            DataPath::Gvmi => self.post_gvmi_pair(st, rts, rtr),
            DataPath::Staging => self.post_staging_read(st, rts, rtr),
        }
    }

    /// One per-transfer fallback from cross-GVMI to the staging path:
    /// the count and event every downgrade site shares (and the single
    /// place the breaker fast-path hooks around).
    fn note_fallback(&self, src_rank: usize, dst_rank: usize, tag: u64, msg_id: u64) {
        self.ctx.stat_incr("offload.fallback.staging", 1);
        self.ctx.emit(&ProtoEvent::FallbackToStaging {
            src_rank,
            dst_rank,
            tag,
            msg_id,
        });
    }

    /// Feed one `(peer, path)` outcome into the health engine and emit
    /// any breaker transition. No-op while the engine is disabled.
    fn note_breaker(&self, st: &mut ProxyState, peer: usize, path: HealthPath, ok: bool) {
        match st.health.on_outcome(peer, path, ok) {
            Some(BreakerEvent::Tripped) => {
                self.ctx.stat_incr("offload.health.breaker_trips", 1);
                self.ctx.emit(&ProtoEvent::BreakerTripped { peer, path });
            }
            Some(BreakerEvent::Closed) => {
                self.ctx.stat_incr("offload.health.breaker_closes", 1);
                self.ctx.emit(&ProtoEvent::BreakerClosed { peer, path });
            }
            None => {}
        }
    }

    /// A breaker just half-opened and admitted `msg_id` as its probe:
    /// emit the transition pair the timeline reconstructs states from.
    fn note_probe(&self, peer: usize, path: HealthPath, msg_id: u64) {
        self.ctx.stat_incr("offload.health.half_opens", 1);
        self.ctx.emit(&ProtoEvent::BreakerHalfOpen { peer, path });
        self.ctx.stat_incr("offload.health.probes", 1);
        self.ctx
            .emit(&ProtoEvent::BreakerProbe { peer, path, msg_id });
    }

    /// Cross-register (through the DPU GVMI cache) and write straight from
    /// the source host's memory to the destination host (paper Fig. 6,
    /// GVMI path). A failed cross-GVMI registration (injected via
    /// `FaultPlan::xreg_fail_pm`) downgrades this one transfer to the
    /// staging path instead of failing it. With the health engine armed,
    /// an open cross-GVMI breaker for the source rank routes straight to
    /// staging — no registration attempt, no per-message fallback
    /// round-trip (DESIGN.md §19).
    fn post_gvmi_pair(&self, st: &mut ProxyState, rts: RtsInfo, rtr: RtrInfo) {
        let peer = rts.src_rank;
        match st.health.route(peer, HealthPath::CrossGvmi) {
            // Fast-path needs the rkey the host carries on fallback-armed
            // plans; without one the post must take the primary path.
            Route::FastPath if rts.src_rkey.is_some() => {
                self.ctx.stat_incr("offload.health.fastpaths", 1);
                self.ctx.emit(&ProtoEvent::BreakerFastPath {
                    peer,
                    path: HealthPath::CrossGvmi,
                    msg_id: rts.msg_id,
                });
                self.post_staging_read(st, rts, rtr);
                return;
            }
            Route::Probe => self.note_probe(peer, HealthPath::CrossGvmi, rts.msg_id),
            _ => {}
        }
        let mkey = rts.mkey.expect("GVMI RTS carries an mkey");
        let reg = self.try_cross_reg(st, peer, rts.addr, rts.len, mkey);
        // The registration result is the breaker's (and the probe's)
        // verdict; a successful probe has just rebuilt the reg-cache
        // entry, so closing the breaker resumes with warm state.
        self.note_breaker(st, peer, HealthPath::CrossGvmi, reg.is_some());
        let Some(mkey2) = reg else {
            self.note_fallback(rts.src_rank, rtr.dst_rank, rts.tag, rts.msg_id);
            self.post_staging_read(st, rts, rtr);
            return;
        };
        let wr = self.next_wrid(st);
        let len = rts.len.min(rtr.len);
        self.ctx.emit(&ProtoEvent::Mkey2Used { mkey2 });
        self.ctx.emit(&ProtoEvent::WritePosted {
            wrid: wr,
            bytes: len,
            path: PathKind::CrossGvmi,
            msg_id: rts.msg_id,
        });
        // End-to-end integrity: the host's CRC covers exactly rts.len
        // bytes, so a truncating match (shorter receive) is exempt.
        if let Some(crc) = rts.crc.filter(|_| len == rts.len) {
            st.inflight_ctx.insert(
                wr,
                WriteCtx {
                    crc,
                    msg_id: rts.msg_id,
                    path: PathKind::CrossGvmi,
                    is_read: false,
                    local: (self.cluster.host_ep(rts.src_rank), rts.addr, mkey2),
                    remote: (self.cluster.host_ep(rtr.dst_rank), rtr.addr, rtr.rkey),
                    len,
                    attempt: 1,
                    arrival: None,
                },
            );
        }
        st.inflight.insert(
            wr,
            Completion::BasicPair {
                src_rank: rts.src_rank,
                src_req: rts.src_req,
                dst_rank: rtr.dst_rank,
                dst_req: rtr.dst_req,
                src_msg_id: rts.msg_id,
                dst_msg_id: rtr.msg_id,
                staged: None,
            },
        );
        self.cluster
            .fabric()
            .rdma_write(
                self.ctx,
                self.my_ep,
                (self.cluster.host_ep(rts.src_rank), rts.addr, mkey2),
                (self.cluster.host_ep(rtr.dst_rank), rtr.addr, rtr.rkey),
                len,
                Some(wr),
                None,
            )
            .expect("GVMI data write");
        self.ctx.stat_incr("offload.proxy.gvmi_writes", 1);
    }

    /// Staging hop 1: pull the payload out of the source host's memory
    /// into DPU staging with an RDMA READ (the BluesMPI worker-read).
    /// With the health engine armed, an open staging breaker for the
    /// source rank degrades the transfer to a host-direct write (no DPU
    /// hop) when the RTS carries an mkey to cross-register with.
    fn post_staging_read(&self, st: &mut ProxyState, rts: RtsInfo, rtr: RtrInfo) {
        let peer = rts.src_rank;
        match st.health.route(peer, HealthPath::Staging) {
            Route::FastPath if rts.mkey.is_some() => {
                self.ctx.stat_incr("offload.health.fastpaths", 1);
                self.ctx.emit(&ProtoEvent::BreakerFastPath {
                    peer,
                    path: HealthPath::Staging,
                    msg_id: rts.msg_id,
                });
                self.post_host_direct(st, rts, rtr);
                return;
            }
            Route::Probe => self.note_probe(peer, HealthPath::Staging, rts.msg_id),
            _ => {}
        }
        let (buf, key) = self.staging_buffer_for(st, rts.src_rank, rts.addr, rts.len);
        let src_rkey = rts.src_rkey.expect("staging RTS carries an rkey");
        let wr = self.next_wrid(st);
        let len = rts.len.min(rtr.len);
        let src_ep = self.cluster.host_ep(rts.src_rank);
        let src_addr = rts.addr;
        self.ctx.emit(&ProtoEvent::WritePosted {
            wrid: wr,
            bytes: len,
            path: PathKind::StagingHop1,
            msg_id: rts.msg_id,
        });
        // Verify the staged copy too: a corruption healed on hop 1 keeps
        // hop 2's retransmissions meaningful (re-sending a corrupt
        // staged image could never converge).
        if let Some(crc) = rts.crc.filter(|_| len == rts.len) {
            st.inflight_ctx.insert(
                wr,
                WriteCtx {
                    crc,
                    msg_id: rts.msg_id,
                    path: PathKind::StagingHop1,
                    is_read: true,
                    local: (self.my_ep, buf, key),
                    remote: (src_ep, src_addr, src_rkey),
                    len,
                    attempt: 1,
                    arrival: None,
                },
            );
        }
        st.inflight.insert(
            wr,
            Completion::StagingRead {
                pair: Box::new((rts, rtr)),
                buf: (buf, key),
            },
        );
        self.cluster
            .fabric()
            .rdma_read(
                self.ctx,
                self.my_ep,
                (self.my_ep, buf, key),
                (src_ep, src_addr, src_rkey),
                len,
                Some(wr),
            )
            .expect("staging read");
        self.ctx.stat_incr("offload.proxy.staging_reads", 1);
    }

    /// Staging hop 2: forward the staged payload from DPU memory to the
    /// destination host (paper Fig. 6 — the extra hop). `buf` is the
    /// staging buffer hop 1 read into (rode along in the completion).
    fn post_staged_pair(
        &self,
        st: &mut ProxyState,
        rts: RtsInfo,
        rtr: RtrInfo,
        buf: (VAddr, MrKey),
    ) {
        let (buf, key) = buf;
        let wr = self.next_wrid(st);
        let len = rts.len.min(rtr.len);
        self.ctx.emit(&ProtoEvent::WritePosted {
            wrid: wr,
            bytes: len,
            path: PathKind::StagingHop2,
            msg_id: rts.msg_id,
        });
        if let Some(crc) = rts.crc.filter(|_| len == rts.len) {
            st.inflight_ctx.insert(
                wr,
                WriteCtx {
                    crc,
                    msg_id: rts.msg_id,
                    path: PathKind::StagingHop2,
                    is_read: false,
                    local: (self.my_ep, buf, key),
                    remote: (self.cluster.host_ep(rtr.dst_rank), rtr.addr, rtr.rkey),
                    len,
                    attempt: 1,
                    arrival: None,
                },
            );
        }
        let staged = (self.cfg.staging_cap > 0).then_some((buf, key, rts.len));
        st.inflight.insert(
            wr,
            Completion::BasicPair {
                src_rank: rts.src_rank,
                src_req: rts.src_req,
                dst_rank: rtr.dst_rank,
                dst_req: rtr.dst_req,
                src_msg_id: rts.msg_id,
                dst_msg_id: rtr.msg_id,
                staged,
            },
        );
        self.cluster
            .fabric()
            .rdma_write(
                self.ctx,
                self.my_ep,
                (self.my_ep, buf, key),
                (self.cluster.host_ep(rtr.dst_rank), rtr.addr, rtr.rkey),
                len,
                Some(wr),
                None,
            )
            .expect("staging forward write");
        self.ctx.stat_incr("offload.proxy.staging_forwards", 1);
    }

    /// Degraded-mode data movement while a peer's staging breaker is
    /// open (DESIGN.md §19): cross-register through the cache — the sick
    /// resource is the staging hop, not registration, so this uses the
    /// infallible path — and write host-to-host directly, skipping DPU
    /// memory entirely.
    fn post_host_direct(&self, st: &mut ProxyState, rts: RtsInfo, rtr: RtrInfo) {
        let mkey = rts.mkey.expect("host-direct degrade requires an mkey");
        let mkey2 = self.cross_reg_cached(st, rts.src_rank, rts.addr, rts.len, mkey);
        let wr = self.next_wrid(st);
        let len = rts.len.min(rtr.len);
        self.ctx.emit(&ProtoEvent::Mkey2Used { mkey2 });
        self.ctx.emit(&ProtoEvent::WritePosted {
            wrid: wr,
            bytes: len,
            path: PathKind::CrossGvmi,
            msg_id: rts.msg_id,
        });
        if let Some(crc) = rts.crc.filter(|_| len == rts.len) {
            st.inflight_ctx.insert(
                wr,
                WriteCtx {
                    crc,
                    msg_id: rts.msg_id,
                    path: PathKind::CrossGvmi,
                    is_read: false,
                    local: (self.cluster.host_ep(rts.src_rank), rts.addr, mkey2),
                    remote: (self.cluster.host_ep(rtr.dst_rank), rtr.addr, rtr.rkey),
                    len,
                    attempt: 1,
                    arrival: None,
                },
            );
        }
        st.inflight.insert(
            wr,
            Completion::BasicPair {
                src_rank: rts.src_rank,
                src_req: rts.src_req,
                dst_rank: rtr.dst_rank,
                dst_req: rtr.dst_req,
                src_msg_id: rts.msg_id,
                dst_msg_id: rtr.msg_id,
                staged: None,
            },
        );
        self.cluster
            .fabric()
            .rdma_write(
                self.ctx,
                self.my_ep,
                (self.cluster.host_ep(rts.src_rank), rts.addr, mkey2),
                (self.cluster.host_ep(rtr.dst_rank), rtr.addr, rtr.rkey),
                len,
                Some(wr),
                None,
            )
            .expect("host-direct degraded write");
        self.ctx.stat_incr("offload.health.host_direct_writes", 1);
    }

    /// Infallible cross-registration (one-sided gets, which have no
    /// staging fallback — a documented exemption).
    fn cross_reg_cached(
        &self,
        st: &mut ProxyState,
        src_rank: usize,
        addr: VAddr,
        len: u64,
        mkey: MrKey,
    ) -> MrKey {
        self.cross_reg_inner(st, src_rank, addr, len, mkey, false)
            .expect("infallible cross registration")
    }

    /// Cross-registration that may fail per the fault plan's
    /// `xreg_fail_pm`; `None` tells the caller to fall back to staging.
    /// A cache hit never fails: no fresh registration call is made.
    fn try_cross_reg(
        &self,
        st: &mut ProxyState,
        src_rank: usize,
        addr: VAddr,
        len: u64,
        mkey: MrKey,
    ) -> Option<MrKey> {
        self.cross_reg_inner(st, src_rank, addr, len, mkey, true)
    }

    fn cross_reg_inner(
        &self,
        st: &mut ProxyState,
        src_rank: usize,
        addr: VAddr,
        len: u64,
        mkey: MrKey,
        may_fail: bool,
    ) -> Option<MrKey> {
        let fab = self.cluster.fabric();
        // Cross-registrations live in the owning tenant's GVMI
        // namespace; tenants never share (or validate against) each
        // other's entries.
        let tenant = self.cfg.tenant_of(src_rank);
        let world = self.cluster.world_size();
        if self.cfg.use_gvmi_cache {
            let (hit, outcome) = {
                let cache = st
                    .cross_caches
                    .entry(tenant)
                    .or_insert_with(|| fresh_cross_cache(self.cfg, world));
                let (v, outcome) =
                    cache.get_validated_outcome(src_rank, addr.0, len, |(m, _)| *m == mkey);
                (v.copied(), outcome)
            };
            self.ctx.emit(&ProtoEvent::CrossRegCacheLookup {
                host_rank: src_rank,
                addr,
                len,
                outcome,
                mkey: hit.map(|(m, _)| m),
                mkey2: hit.map(|(_, m2)| m2),
            });
            if let Some((_, mkey2)) = hit {
                return Some(mkey2);
            }
        }
        if self.cfg.fault.skip_cross_reg {
            // Deliberate protocol violation: hand back the host's mkey as
            // if it were a cross-registration. No CrossReg event is
            // emitted, so the checker flags the first Mkey2Used.
            return Some(mkey);
        }
        if may_fail && st.xreg_rng.chance(self.cfg.fault.xreg_fail_pm) {
            return None;
        }
        let gvmi = fab.gvmi_of(self.my_ep).expect("proxy endpoint has a GVMI");
        let mkey2 = fab
            .cross_reg(self.ctx, self.my_ep, addr, len, mkey, gvmi)
            .expect("cross registration");
        self.ctx.emit(&ProtoEvent::CrossReg {
            host_rank: src_rank,
            addr,
            len,
            mkey,
            mkey2,
        });
        if self.cfg.use_gvmi_cache {
            let cache = st
                .cross_caches
                .entry(tenant)
                .or_insert_with(|| fresh_cross_cache(self.cfg, world));
            let evicted = cache.insert(src_rank, addr.0, len, (mkey, mkey2));
            if evicted.is_some() {
                self.ctx.emit(&ProtoEvent::CacheEvicted {
                    rank: src_rank,
                    side: CacheSide::DpuCross,
                });
            }
        }
        Some(mkey2)
    }

    /// Report queue depths right after an enqueue, so a sink tracking
    /// high-water marks sees every local maximum.
    fn emit_queue_depth(&self, st: &ProxyState) {
        self.ctx.emit(&ProtoEvent::ProxyQueueDepth {
            send_depth: st.send_q_len,
            recv_depth: st.recv_q_len,
        });
    }

    /// Record the first stall at a barrier crossing `(key, gen, cursor)`;
    /// repeat polls of the same blocked barrier are not new stalls.
    fn note_barrier_stall(&self, st: &mut ProxyState, key: GroupKey, gen: u64, cursor: usize) {
        if st.stalled.insert((key, gen, cursor)) {
            self.ctx.stat_incr("offload.proxy.barrier_stalls", 1);
            self.ctx.emit(&ProtoEvent::BarrierStall {
                host_rank: key.host_rank,
                req_id: key.req_id,
                gen,
            });
        }
    }

    fn next_wrid(&self, st: &mut ProxyState) -> u64 {
        st.next_wr += 1;
        WRID_OFF_PROXY | st.next_wr
    }

    fn on_cqe(&self, st: &mut ProxyState, wrid: u64) {
        crate::profile_scope!("cq_poll");
        let Some(completion) = st.inflight.remove(&wrid) else {
            // CQE of a write posted before a crash: the restarted proxy
            // does not know it. The transfer itself is re-driven by the
            // host's post-restart replay, so just account for it. (No
            // WriteCompleted event either — the restart wiped the posted
            // side from the checker's books.)
            self.ctx.stat_incr("offload.proxy.stale_cqe", 1);
            self.ctx.emit(&ProtoEvent::StaleCqe { wrid });
            return;
        };
        self.ctx.emit(&ProtoEvent::WriteCompleted { wrid });
        // End-to-end integrity gate (payload-fault plans only): verify
        // the landed bytes against the sender's CRC before acting on the
        // completion. A mismatch schedules a bounded retransmission
        // instead — no FIN, no staging forward, no barrier progress.
        if let Some(wctx) = st.inflight_ctx.remove(&wrid) {
            crate::profile_scope!("crc_verify");
            let (ep, addr, _) = if wctx.is_read {
                wctx.local
            } else {
                wctx.remote
            };
            let got = self
                .cluster
                .fabric()
                .crc32(ep, addr, wctx.len)
                .expect("CRC of a landed payload");
            if got != wctx.crc {
                self.on_corrupt(st, wctx, completion);
                return;
            }
            if let Some((dst_proxy, arrival)) = wctx.arrival {
                self.send_arrival(dst_proxy, arrival);
            }
            if wctx.attempt > 1 {
                self.ctx.stat_incr("offload.integrity.recovered", 1);
                self.ctx.emit(&ProtoEvent::PayloadRecovered {
                    msg_id: wctx.msg_id,
                    attempts: wctx.attempt,
                });
                // A retried payload made it through: the peer earns its
                // data retry-budget tokens back.
                st.health
                    .credit_data(Self::completion_src_rank(&completion));
            }
        }
        self.complete(st, wrid, completion);
    }

    /// Act on a (verified) completed operation.
    fn complete(&self, st: &mut ProxyState, wrid: u64, completion: Completion) {
        match completion {
            Completion::BasicPair {
                src_rank,
                src_req,
                dst_rank,
                dst_req,
                src_msg_id,
                dst_msg_id,
                staged,
            } => {
                self.release_staged(st, self.cfg.tenant_of(src_rank), staged);
                // FIN packets to both hosts (paper Fig. 8, §VIII-C: two of
                // the four per-transfer control messages). One-sided puts
                // ride this path with no receive request: only the origin
                // is notified. The journal write precedes the (losable)
                // FIN sends: write-ahead, so a replay after a crash at any
                // point from here on resolves to a FIN resend.
                st.completed_msgs.insert(src_msg_id, wrid);
                if dst_req != usize::MAX {
                    st.completed_msgs.insert(dst_msg_id, wrid);
                }
                self.truncate_journal(st);
                let credit = self.fin_credit(st, src_rank);
                self.send_ctrl(
                    st,
                    self.cluster.host_ep(src_rank),
                    CtrlMsg::FinSend {
                        req: src_req,
                        msg_id: src_msg_id,
                        credit,
                    },
                );
                self.ctx.emit(&ProtoEvent::FinSent {
                    rank: src_rank,
                    req: src_req,
                    wrid,
                    kind: crate::events::FinKind::Send,
                    msg_id: src_msg_id,
                });
                self.ctx.stat_incr("offload.ctrl.host_dpu", 1);
                if dst_req != usize::MAX {
                    if self.cfg.fault.drop_first_fin && !st.fin_dropped {
                        // Deliberate fault: lose this FinRecv. The waiting
                        // receiver never completes, so the run deadlocks.
                        st.fin_dropped = true;
                        return;
                    }
                    let credit = self.fin_credit(st, dst_rank);
                    self.send_ctrl(
                        st,
                        self.cluster.host_ep(dst_rank),
                        CtrlMsg::FinRecv {
                            req: dst_req,
                            msg_id: dst_msg_id,
                            credit,
                        },
                    );
                    self.ctx.emit(&ProtoEvent::FinSent {
                        rank: dst_rank,
                        req: dst_req,
                        wrid,
                        kind: crate::events::FinKind::Recv,
                        msg_id: dst_msg_id,
                    });
                    self.ctx.stat_incr("offload.ctrl.host_dpu", 1);
                }
            }
            Completion::OneSided {
                src_rank,
                src_req,
                msg_id,
            } => {
                st.completed_msgs.insert(msg_id, wrid);
                self.truncate_journal(st);
                let credit = self.fin_credit(st, src_rank);
                self.send_ctrl(
                    st,
                    self.cluster.host_ep(src_rank),
                    CtrlMsg::FinSend {
                        req: src_req,
                        msg_id,
                        credit,
                    },
                );
                self.ctx.emit(&ProtoEvent::FinSent {
                    rank: src_rank,
                    req: src_req,
                    wrid,
                    kind: crate::events::FinKind::Send,
                    msg_id,
                });
                self.ctx.stat_incr("offload.ctrl.host_dpu", 1);
            }
            Completion::StagingRead { pair, buf } => {
                let (rts, rtr) = *pair;
                // Hop 1 landed clean: a staging success for the breaker
                // window (and the verdict of a staging probe, if this
                // read was one).
                self.note_breaker(st, rts.src_rank, HealthPath::Staging, true);
                self.post_staged_pair(st, rts, rtr, buf);
            }
            Completion::GroupSend { key, gen } => {
                if let Some(inst) = st
                    .instances
                    .iter_mut()
                    .find(|i| i.key == key && i.gen == gen)
                {
                    inst.outstanding -= 1;
                }
            }
            Completion::GroupStageRead {
                key,
                gen,
                entry_idx,
            } => {
                st.group_staged.insert((key, gen, entry_idx));
            }
        }
    }

    /// The rank whose breaker and retry budget a completion's data
    /// movement is charged to (the transfer's source side).
    fn completion_src_rank(completion: &Completion) -> usize {
        match completion {
            Completion::BasicPair { src_rank, .. } | Completion::OneSided { src_rank, .. } => {
                *src_rank
            }
            Completion::StagingRead { pair, .. } => pair.0.src_rank,
            Completion::GroupSend { key, .. } | Completion::GroupStageRead { key, .. } => {
                key.host_rank
            }
        }
    }

    /// A landed payload failed CRC verification. Within budget: arm a
    /// backoff timer and park the operation for re-posting. Attempt
    /// bound hit, or the peer's data retry budget dry: surface a typed
    /// data-plane failure to the owning host(s) — never a FIN, never a
    /// hang.
    fn on_corrupt(&self, st: &mut ProxyState, mut wctx: WriteCtx, completion: Completion) {
        self.ctx.stat_incr("offload.integrity.corrupt", 1);
        self.ctx.emit(&ProtoEvent::PayloadCorrupt {
            msg_id: wctx.msg_id,
            attempt: wctx.attempt,
        });
        let peer = Self::completion_src_rank(&completion);
        let path_class = match wctx.path {
            PathKind::CrossGvmi => HealthPath::CrossGvmi,
            _ => HealthPath::Staging,
        };
        self.note_breaker(st, peer, path_class, false);
        if wctx.attempt >= self.cfg.data_retx_max {
            self.ctx.stat_incr("offload.integrity.failures", 1);
            self.ctx.emit(&ProtoEvent::DataIntegrityFailed {
                msg_id: wctx.msg_id,
                attempts: wctx.attempt,
            });
            self.fail_transfer(st, completion, wctx.attempt, None);
            return;
        }
        if !st.health.try_spend_data(peer) {
            self.fail_transfer(st, completion, wctx.attempt, Some(path_class));
            return;
        }
        let delay = backoff_delay_from(self.cfg.retx_base, self.cfg.retx_cap, wctx.attempt);
        wctx.attempt += 1;
        st.next_retx_token += 1;
        let token = st.next_retx_token;
        st.data_retx.insert(token, (wctx, completion));
        self.ctx.stat_incr("offload.integrity.retransmits", 1);
        self.ctx.deliver_self(
            delay,
            Box::new(NetMsg::Notify(Box::new(CtrlMsg::DataRetxTick { token }))),
        );
    }

    /// Signal a verified group data write to its destination proxy: the
    /// per-write arrival counter of Algorithm 1, written once the landed
    /// bytes pass the integrity check instead of together with them.
    fn send_arrival(&self, dst_proxy: EpId, arrival: CtrlMsg) {
        let sent = self.cluster.fabric().send_packet(
            self.ctx,
            self.my_ep,
            dst_proxy,
            self.cfg.ctrl_bytes,
            Box::new(arrival),
        );
        debug_assert!(sent.is_ok(), "a proxy posts from its own endpoint");
    }

    /// Re-post a corrupt operation after its backoff (fresh wrid, same
    /// path; a group write's arrival is signalled once it verifies).
    fn repost(&self, st: &mut ProxyState, wctx: WriteCtx, completion: Completion) {
        let wr = self.next_wrid(st);
        self.ctx.emit(&ProtoEvent::WritePosted {
            wrid: wr,
            bytes: wctx.len,
            path: wctx.path,
            msg_id: wctx.msg_id,
        });
        let fab = self.cluster.fabric();
        if wctx.is_read {
            fab.rdma_read(
                self.ctx,
                self.my_ep,
                wctx.local,
                wctx.remote,
                wctx.len,
                Some(wr),
            )
            .expect("data retransmit read");
        } else {
            fab.rdma_write(
                self.ctx,
                self.my_ep,
                wctx.local,
                wctx.remote,
                wctx.len,
                Some(wr),
                None,
            )
            .expect("data retransmit write");
        }
        st.inflight.insert(wr, completion);
        st.inflight_ctx.insert(wr, wctx);
    }

    /// Permanent data-plane failure: tell every host waiting on this
    /// operation, with the typed error message its engine maps to
    /// `OffloadError::DataIntegrity` (basic) or a failed generation
    /// (group). Group bookkeeping for the dead generation is dropped so
    /// the proxy still quiesces. `shed` marks a health-engine
    /// retry-budget shed (rather than an exhausted attempt bound): the
    /// `DataError` carries the shed flag so hosts surface
    /// [`crate::OffloadError::RetryBudgetExhausted`], and a
    /// `RetryBudgetExhausted` event is emitted per failed basic request
    /// so the checker can pair each shed with its `ReqFailed`. (Group
    /// sheds ride `GroupDataError` and emit no shed event — the whole
    /// generation fails through `GroupFailed`.)
    fn fail_transfer(
        &self,
        st: &mut ProxyState,
        completion: Completion,
        attempts: u32,
        shed: Option<HealthPath>,
    ) {
        let is_shed = shed.is_some();
        if is_shed {
            self.ctx.stat_incr("offload.health.retry_budget_sheds", 1);
        }
        let note_shed = |rank: usize, msg_id: u64| {
            if let Some(path) = shed {
                self.ctx
                    .emit(&ProtoEvent::RetryBudgetExhausted { rank, msg_id, path });
            }
        };
        match completion {
            Completion::BasicPair {
                src_rank,
                src_req,
                dst_rank,
                dst_req,
                src_msg_id,
                dst_msg_id,
                staged,
            } => {
                self.release_staged(st, self.cfg.tenant_of(src_rank), staged);
                note_shed(src_rank, src_msg_id);
                self.send_ctrl(
                    st,
                    self.cluster.host_ep(src_rank),
                    CtrlMsg::DataError {
                        req: src_req,
                        msg_id: src_msg_id,
                        attempts,
                        shed: is_shed,
                    },
                );
                self.ctx.stat_incr("offload.ctrl.host_dpu", 1);
                if dst_req != usize::MAX {
                    note_shed(dst_rank, dst_msg_id);
                    self.send_ctrl(
                        st,
                        self.cluster.host_ep(dst_rank),
                        CtrlMsg::DataError {
                            req: dst_req,
                            msg_id: dst_msg_id,
                            attempts,
                            shed: is_shed,
                        },
                    );
                    self.ctx.stat_incr("offload.ctrl.host_dpu", 1);
                }
            }
            Completion::OneSided {
                src_rank,
                src_req,
                msg_id,
            } => {
                note_shed(src_rank, msg_id);
                self.send_ctrl(
                    st,
                    self.cluster.host_ep(src_rank),
                    CtrlMsg::DataError {
                        req: src_req,
                        msg_id,
                        attempts,
                        shed: is_shed,
                    },
                );
                self.ctx.stat_incr("offload.ctrl.host_dpu", 1);
            }
            Completion::StagingRead { pair, buf } => {
                let (rts, rtr) = *pair;
                self.release_staged(st, rts.tenant, Some((buf.0, buf.1, rts.len)));
                note_shed(rts.src_rank, rts.msg_id);
                self.send_ctrl(
                    st,
                    self.cluster.host_ep(rts.src_rank),
                    CtrlMsg::DataError {
                        req: rts.src_req,
                        msg_id: rts.msg_id,
                        attempts,
                        shed: is_shed,
                    },
                );
                self.ctx.stat_incr("offload.ctrl.host_dpu", 1);
                if rtr.dst_req != usize::MAX {
                    note_shed(rtr.dst_rank, rtr.msg_id);
                    self.send_ctrl(
                        st,
                        self.cluster.host_ep(rtr.dst_rank),
                        CtrlMsg::DataError {
                            req: rtr.dst_req,
                            msg_id: rtr.msg_id,
                            attempts,
                            shed: is_shed,
                        },
                    );
                    self.ctx.stat_incr("offload.ctrl.host_dpu", 1);
                }
            }
            Completion::GroupSend { key, gen } | Completion::GroupStageRead { key, gen, .. } => {
                self.send_ctrl(
                    st,
                    self.cluster.host_ep(key.host_rank),
                    CtrlMsg::GroupDataError {
                        req_id: key.req_id,
                        gen,
                        attempts,
                    },
                );
                self.ctx.stat_incr("offload.ctrl.host_dpu", 1);
                for inst in st
                    .instances
                    .iter_mut()
                    .filter(|i| i.key == key && i.gen == gen)
                {
                    inst.done = true;
                }
                st.arrivals.remove(&(key, gen));
                st.stalled.retain(|&(k, g, _)| !(k == key && g == gen));
                st.group_staged.retain(|&(k, g, _)| !(k == key && g == gen));
                st.stage_read_posted
                    .retain(|&(k, g, _)| !(k == key && g == gen));
            }
        }
    }

    // ---- Group primitives (Algorithm 1) ----

    fn install_group(
        &self,
        st: &mut ProxyState,
        key: GroupKey,
        entries: Vec<WireEntry>,
        host_pid: Pid,
    ) {
        let want_staging = self.cfg.data_path == DataPath::Staging;
        // Interpret every entry once (ARM time).
        let _ = self.cluster.fabric().charge_cpu(
            self.ctx,
            self.my_ep,
            self.cfg.proxy_entry_overhead * entries.len().max(1) as u64,
        );
        let mut mkey2 = vec![None; entries.len()];
        let mut staging = vec![None; entries.len()];
        let fab = self.cluster.fabric();
        for (i, e) in entries.iter().enumerate() {
            if let WireEntry::Send {
                addr,
                len,
                mkey,
                dst_rank,
                tag,
                msg_id,
                ..
            } = e
            {
                if want_staging {
                    let buf = fab.alloc(self.my_ep, *len);
                    let k = fab
                        .reg_mr(self.ctx, self.my_ep, buf, *len)
                        .expect("group staging registration");
                    staging[i] = Some((buf, k));
                } else {
                    // Cross-registration now, stored with the entry, so
                    // execution never searches the GVMI cache (paper
                    // §VII-D). A failed cross-GVMI registration demotes
                    // just this entry to a staging buffer; an open
                    // breaker demotes it without consulting the sick
                    // path at all.
                    let peer = key.host_rank;
                    match st.health.route(peer, HealthPath::CrossGvmi) {
                        Route::FastPath => {
                            self.ctx.stat_incr("offload.health.fastpaths", 1);
                            self.ctx.emit(&ProtoEvent::BreakerFastPath {
                                peer,
                                path: HealthPath::CrossGvmi,
                                msg_id: *msg_id,
                            });
                            let buf = fab.alloc(self.my_ep, *len);
                            let k = fab
                                .reg_mr(self.ctx, self.my_ep, buf, *len)
                                .expect("fallback staging registration");
                            staging[i] = Some((buf, k));
                            continue;
                        }
                        Route::Probe => self.note_probe(peer, HealthPath::CrossGvmi, *msg_id),
                        _ => {}
                    }
                    let reg = self.try_cross_reg(st, peer, *addr, *len, *mkey);
                    self.note_breaker(st, peer, HealthPath::CrossGvmi, reg.is_some());
                    match reg {
                        Some(m2) => mkey2[i] = Some(m2),
                        None => {
                            self.note_fallback(key.host_rank, *dst_rank, *tag, *msg_id);
                            let buf = fab.alloc(self.my_ep, *len);
                            let k = fab
                                .reg_mr(self.ctx, self.my_ep, buf, *len)
                                .expect("fallback staging registration");
                            staging[i] = Some((buf, k));
                        }
                    }
                }
            }
        }
        st.groups.insert(
            key,
            CachedGroup {
                entries,
                mkey2,
                staging,
                host_pid,
            },
        );
    }

    fn start_instance(&self, st: &mut ProxyState, key: GroupKey, gen: u64, crcs: Option<Vec<u32>>) {
        assert!(
            st.groups.contains_key(&key),
            "exec for unknown group {key:?}"
        );
        if st.fin_gens.get(&key).copied().unwrap_or(0) >= gen {
            // This generation finished in a previous life; only the FIN
            // can have been lost. Resend it instead of re-executing.
            self.ctx.stat_incr("offload.reliable.fin_resends", 1);
            self.post_group_fin(st, key, gen);
            return;
        }
        if st.instances.iter().any(|i| i.key == key && i.gen == gen) {
            // Duplicate exec (a retransmit racing the host's replay):
            // at most one instance per (group, generation).
            self.ctx.stat_incr("offload.reliable.dups_dropped", 1);
            self.ctx.emit(&ProtoEvent::CtrlDuplicateDropped {
                at_proxy: true,
                kind: CtrlKind::GroupExec,
                msg_id: 0,
            });
            return;
        }
        // Spread the per-send CRC list over the entry indices. A short
        // list leaves 0s, which fail verification instead of passing.
        let crcs = crcs.zip(st.groups.get(&key)).map(|(list, group)| {
            let mut list = list.into_iter();
            group
                .entries
                .iter()
                .map(|e| match e {
                    WireEntry::Send { .. } => list.next().unwrap_or_default(),
                    _ => 0,
                })
                .collect()
        });
        st.instances.push(Instance {
            key,
            gen,
            cursor: 0,
            outstanding: 0,
            barriers: 0,
            send_set: BTreeSet::new(),
            barrier_written: false,
            done: false,
            crcs,
        });
        let idx = st.instances.len() - 1;
        self.advance_instance(st, idx);
    }

    /// Ship a generation's completion to the owning host. Group FINs
    /// aggregate many writes, so no single completed wrid names them;
    /// allocate a fresh id from the proxy's work-request namespace
    /// instead of the old colliding 0 sentinel, so every FIN in a trace
    /// is uniquely attributable.
    fn post_group_fin(&self, st: &mut ProxyState, key: GroupKey, gen: u64) {
        self.send_ctrl(
            st,
            self.cluster.host_ep(key.host_rank),
            CtrlMsg::GroupFin {
                req_id: key.req_id,
                gen,
            },
        );
        let fin_id = self.next_wrid(st);
        self.ctx.emit(&ProtoEvent::FinSent {
            rank: key.host_rank,
            req: key.req_id,
            wrid: fin_id,
            kind: crate::events::FinKind::Group,
            msg_id: 0,
        });
        self.ctx.stat_incr("offload.ctrl.host_dpu", 1);
    }

    fn advance_all(&self, st: &mut ProxyState) {
        for i in 0..st.instances.len() {
            if !st.instances[i].done {
                self.advance_instance(st, i);
            }
        }
        st.instances.retain(|i| !i.done);
    }

    /// Run one instance forward until it blocks or completes — the
    /// `PostCachedEntryOps` loop of Algorithm 1.
    fn advance_instance(&self, st: &mut ProxyState, idx: usize) {
        loop {
            let (key, gen, cursor, gen_crc) = {
                let inst = &st.instances[idx];
                let gen_crc = inst.crcs.as_ref().and_then(|c| c.get(inst.cursor).copied());
                (inst.key, inst.gen, inst.cursor, gen_crc)
            };
            let n_entries = st.groups[&key].entries.len();
            if cursor >= n_entries {
                // End of the queue: completion needs all sends CQE'd and
                // all recv payloads arrived.
                if st.instances[idx].outstanding > 0 {
                    self.ctx.trace(format!(
                        "proxy.wait_cqes.r{}.out{}",
                        key.host_rank, st.instances[idx].outstanding
                    ));
                    return;
                }
                if !self.recvs_arrived(st, key, gen, n_entries) {
                    self.ctx
                        .trace(format!("proxy.wait_arrivals.r{}", key.host_rank));
                    return;
                }
                let host_pid = st.groups[&key].host_pid;
                let _ = host_pid;
                // Journal the finished generation (write-ahead of the
                // losable FIN), then ship the FIN.
                let fin_gen = st.fin_gens.entry(key).or_insert(0);
                *fin_gen = (*fin_gen).max(gen);
                self.post_group_fin(st, key, gen);
                self.ctx
                    .trace(format!("proxy.group_fin.r{}.g{gen}", key.host_rank));
                st.arrivals.remove(&(key, gen));
                st.stalled.retain(|&(k, g, _)| !(k == key && g == gen));
                st.instances[idx].done = true;
                return;
            }
            let entry = st.groups[&key].entries[cursor].clone();
            match entry {
                WireEntry::Send {
                    addr,
                    len,
                    dst_rank,
                    tag,
                    dst_addr,
                    dst_rkey,
                    dst_req_id,
                    msg_id,
                    crc,
                    ..
                } => {
                    // Verify against this generation's CRC, taken at its
                    // own call: the host may have rewritten the buffer.
                    let crc = crc.map(|c| gen_crc.unwrap_or(c));
                    let staging = st.groups[&key].staging[cursor];
                    let mkey2 = st.groups[&key].mkey2[cursor];
                    if let Some((buf, bkey)) = staging {
                        if !st.group_staged.remove(&(key, gen, cursor)) {
                            // Staging hop 1: pull the (current generation's)
                            // payload from host memory, once per entry/gen.
                            if st.stage_read_posted.insert((key, gen, cursor)) {
                                let entry_src_rkey = match &st.groups[&key].entries[cursor] {
                                    WireEntry::Send { src_rkey, .. } => *src_rkey,
                                    _ => unreachable!("send entry"),
                                };
                                let _ = self.cluster.fabric().charge_cpu(
                                    self.ctx,
                                    self.my_ep,
                                    self.cfg.proxy_entry_overhead,
                                );
                                let wr = self.next_wrid(st);
                                self.ctx.emit(&ProtoEvent::WritePosted {
                                    wrid: wr,
                                    bytes: len,
                                    path: PathKind::StagingHop1,
                                    msg_id,
                                });
                                if let Some(c) = crc {
                                    st.inflight_ctx.insert(
                                        wr,
                                        WriteCtx {
                                            crc: c,
                                            msg_id,
                                            path: PathKind::StagingHop1,
                                            is_read: true,
                                            local: (self.my_ep, buf, bkey),
                                            remote: (
                                                self.cluster.host_ep(key.host_rank),
                                                addr,
                                                entry_src_rkey,
                                            ),
                                            len,
                                            attempt: 1,
                                            arrival: None,
                                        },
                                    );
                                }
                                st.inflight.insert(
                                    wr,
                                    Completion::GroupStageRead {
                                        key,
                                        gen,
                                        entry_idx: cursor,
                                    },
                                );
                                self.cluster
                                    .fabric()
                                    .rdma_read(
                                        self.ctx,
                                        self.my_ep,
                                        (self.my_ep, buf, bkey),
                                        (self.cluster.host_ep(key.host_rank), addr, entry_src_rkey),
                                        len,
                                        Some(wr),
                                    )
                                    .expect("group staging read");
                                self.ctx.stat_incr("offload.proxy.staging_reads", 1);
                            }
                            return; // payload not in DPU memory yet
                        }
                        st.stage_read_posted.remove(&(key, gen, cursor));
                    }
                    let _ = self.cluster.fabric().charge_cpu(
                        self.ctx,
                        self.my_ep,
                        self.cfg.proxy_entry_overhead,
                    );
                    let wr = self.next_wrid(st);
                    st.inflight.insert(wr, Completion::GroupSend { key, gen });
                    let dst_proxy = self.cluster.proxy_for_rank(dst_rank);
                    let arrival = CtrlMsg::GroupArrival {
                        src_rank: key.host_rank,
                        tag,
                        dst_key: GroupKey {
                            host_rank: dst_rank,
                            req_id: dst_req_id,
                        },
                        gen,
                        msg_id,
                    };
                    let local = match staging {
                        Some((buf, k)) => (self.my_ep, buf, k),
                        None => {
                            let m2 = mkey2.expect("GVMI entries are cross-registered");
                            self.ctx.emit(&ProtoEvent::Mkey2Used { mkey2: m2 });
                            (self.cluster.host_ep(key.host_rank), addr, m2)
                        }
                    };
                    self.ctx.emit(&ProtoEvent::WritePosted {
                        wrid: wr,
                        bytes: len,
                        path: if staging.is_some() {
                            PathKind::StagingHop2
                        } else {
                            PathKind::CrossGvmi
                        },
                        msg_id,
                    });
                    // Clean runs deliver the arrival marker with the data.
                    // Integrity runs signal it only once the landed bytes
                    // verify (see `on_cqe`): the destination must never
                    // complete a generation on a corrupt write.
                    let notify = match crc {
                        Some(c) => {
                            st.inflight_ctx.insert(
                                wr,
                                WriteCtx {
                                    crc: c,
                                    msg_id,
                                    path: if staging.is_some() {
                                        PathKind::StagingHop2
                                    } else {
                                        PathKind::CrossGvmi
                                    },
                                    is_read: false,
                                    local,
                                    remote: (self.cluster.host_ep(dst_rank), dst_addr, dst_rkey),
                                    len,
                                    attempt: 1,
                                    arrival: Some((dst_proxy, arrival)),
                                },
                            );
                            None
                        }
                        None => {
                            let pid = self.cluster.fabric().pid_of(dst_proxy);
                            Some((pid, Box::new(arrival) as Payload))
                        }
                    };
                    self.cluster
                        .fabric()
                        .rdma_write(
                            self.ctx,
                            self.my_ep,
                            local,
                            (self.cluster.host_ep(dst_rank), dst_addr, dst_rkey),
                            len,
                            Some(wr),
                            notify,
                        )
                        .expect("group data write");
                    self.ctx.stat_incr("offload.proxy.group_writes", 1);
                    let inst = &mut st.instances[idx];
                    inst.outstanding += 1;
                    inst.send_set.insert((dst_rank, dst_req_id));
                    inst.cursor += 1;
                }
                WireEntry::Recv { .. } => {
                    st.instances[idx].cursor += 1;
                }
                WireEntry::Barrier => {
                    if st.instances[idx].outstanding > 0 {
                        self.note_barrier_stall(st, key, gen, cursor);
                        return; // wait for send completions
                    }
                    if !st.instances[idx].barrier_written {
                        // writeRemoteBarrierCntr(sendRankSet) — Algorithm 1.
                        let (value, targets) = {
                            let inst = &mut st.instances[idx];
                            inst.barriers += 1;
                            inst.barrier_written = true;
                            let t: Vec<_> = inst.send_set.iter().copied().collect();
                            inst.send_set.clear();
                            (inst.barriers, t)
                        };
                        for (dst_rank, dst_req_id) in targets {
                            let dst_proxy = self.cluster.proxy_for_rank(dst_rank);
                            self.cluster
                                .fabric()
                                .send_packet(
                                    self.ctx,
                                    self.my_ep,
                                    dst_proxy,
                                    self.cfg.ctrl_bytes,
                                    Box::new(CtrlMsg::BarrierCntr {
                                        src_rank: key.host_rank,
                                        dst_key: GroupKey {
                                            host_rank: dst_rank,
                                            req_id: dst_req_id,
                                        },
                                        gen,
                                        value,
                                    }),
                                )
                                .expect("barrier counter write");
                            self.ctx.emit(&ProtoEvent::BarrierCntr {
                                src_rank: key.host_rank,
                                dst_host_rank: dst_rank,
                                dst_req_id,
                                gen,
                                value,
                            });
                        }
                    }
                    // Gate on pre-barrier receive arrivals.
                    if !self.recvs_arrived(st, key, gen, cursor) {
                        self.note_barrier_stall(st, key, gen, cursor);
                        return;
                    }
                    let inst = &mut st.instances[idx];
                    inst.barrier_written = false;
                    inst.cursor += 1;
                }
            }
        }
    }

    /// Have all `Recv` entries with index `< upto` received their payload?
    fn recvs_arrived(&self, st: &ProxyState, key: GroupKey, gen: u64, upto: usize) -> bool {
        let entries = &st.groups[&key].entries;
        let mut needed: BTreeMap<(usize, u64), u64> = BTreeMap::new();
        for e in entries.iter().take(upto) {
            if let WireEntry::Recv { src_rank, tag } = e {
                *needed.entry((*src_rank, *tag)).or_insert(0) += 1;
            }
        }
        if needed.is_empty() {
            return true;
        }
        let got = st.arrivals.get(&(key, gen));
        needed
            .iter()
            .all(|(k, need)| got.and_then(|m| m.get(k)).map_or(0, |s| s.len() as u64) >= *need)
    }
}
