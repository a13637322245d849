//! Host-side API of the offload framework: the paper's Basic and Group
//! primitives (Listings 2 and 4).
//!
//! ```text
//! Init_Offload()            -> Offload::init
//! Send_Offload(...)         -> Offload::send_offload
//! Recv_Offload(...)         -> Offload::recv_offload
//! Wait(&req)                -> Offload::wait
//! Finalize_Offload()        -> Offload::finalize
//!
//! Group_Offload_start(&req) -> Offload::group_start
//! Send_Goffload(...)        -> GroupRequest::send  (via Offload::group_send)
//! Recv_Goffload(...)        -> Offload::group_recv
//! Local_barrier_Goffload    -> Offload::group_barrier
//! Group_Offload_end         -> Offload::group_end
//! Group_Offload_call        -> Offload::group_call
//! Group_Wait                -> Offload::group_wait
//! ```

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use rdma::{Channel, ClusterCtx, EpId, Inbox, MrKey, NetMsg, VAddr};
use simnet::{ProcessCtx, SimDelta};

use crate::config::{DataPath, OffloadConfig, TenantId};
use crate::drr::{Deferred, DrrScheduler};
use crate::events::{
    CacheOutcome, CacheSide, CtrlKind, HealthPath, HostCacheKind, ProtoEvent, ReqDir,
};
use crate::messages::{CtrlMsg, GroupKey, WireEntry, WRID_MASK, WRID_OFF_HOST};
use crate::reg_cache::RankAddrCache;
use crate::reliable::{backoff_delay_from, OffloadError, ReliableLink, ReqOrigin, TickOutcome};

/// Handle of a Basic-primitive transfer (`OffloadRequest` in the paper).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OffloadReq(usize);

impl OffloadReq {
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

/// Handle of a recorded group pattern (`OffloadGroupRequest` in the paper).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GroupRequest(usize);

/// `DeadlineTick.req` values at or above this mark group deadlines; the
/// group request id is `req - GROUP_DEADLINE_BASE`. Basic slots are
/// `Vec` indices and can never reach this.
const GROUP_DEADLINE_BASE: usize = 1 << 48;

/// One recorded group operation.
#[derive(Clone, Debug)]
enum GroupOp {
    Send {
        addr: VAddr,
        len: u64,
        dst: usize,
        tag: u64,
    },
    Recv {
        addr: VAddr,
        len: u64,
        src: usize,
        tag: u64,
    },
    Barrier,
}

struct GroupState {
    ops: Vec<GroupOp>,
    ended: bool,
    gen: u64,
    fin_gen: u64,
    /// Wire entries built during the first call (metadata gather done).
    wire: Option<Vec<WireEntry>>,
    /// Proxy already holds the metadata (group cache is warm).
    proxy_cached: bool,
    /// Terminal failure of the in-flight generation: a group ctrl
    /// message was abandoned, a group entry exhausted its data-path
    /// retransmission budget, or a group deadline expired.
    error: Option<OffloadError>,
}

/// One receive-metadata entry: `(tag, buffer, rkey)`.
type MetaEntry = (u64, VAddr, MrKey);

/// Metadata received from one receiving host, consumed FIFO per source:
/// `(dst_req_id, entries)`.
struct MetaQueue {
    queue: VecDeque<(usize, Vec<MetaEntry>)>,
}

/// One basic-request slot: completion flag plus the stable transfer id
/// assigned at post time (threads the causal timeline through the event
/// stream).
struct ReqSlot {
    done: bool,
    msg_id: u64,
    /// Terminal failure: ctrl abandonment, data-integrity exhaustion,
    /// deadline expiry, or an application cancel.
    error: Option<OffloadError>,
    /// Destination and ctrl message kept for replay after a proxy
    /// restart. Populated only when the fault plan can crash proxies.
    replay: Option<(EpId, CtrlMsg)>,
    /// Endpoint the request was posted to (cancel routing). `None`
    /// while the post is still deferred by the credit window.
    target: Option<EpId>,
    /// Original post kept for deferred admission and `QueueFull`
    /// re-posts. Populated only when the queue cap is armed.
    post: Option<(EpId, u64, CtrlMsg)>,
    /// Endpoint index currently charged one credit for this request.
    window_ep: Option<usize>,
    /// Backpressure re-post attempts (paces the retry backoff).
    attempts: u32,
    /// GVMI-cache entry pinned while this request is in flight
    /// (`(proxy_idx, addr, len)`); set only under a cache budget.
    pin: Option<(usize, u64, u64)>,
}

struct HostState {
    reqs: Vec<ReqSlot>,
    /// Monotone per-rank sequence feeding `msg_id` allocation (basic
    /// requests and group wire entries share the namespace).
    next_msg_seq: u64,
    /// Host-side GVMI cache, indexed by the mapped proxy's local index.
    gvmi_cache: RankAddrCache<MrKey>,
    /// Host-side IB cache (receive buffers).
    ib_cache: RankAddrCache<MrKey>,
    groups: Vec<GroupState>,
    /// Order-stable on purpose: message matching must never depend on
    /// hash-iteration order (see `xtask lint`).
    metas_from: BTreeMap<usize, MetaQueue>,
    /// Reliable ctrl-plane endpoint (seq/ack/retransmit/dedup). Inert
    /// unless the fault plan arms it.
    rel: ReliableLink,
    /// Last restart epoch observed per proxy endpoint index; a higher
    /// epoch in a `ProxyRestarted` notice triggers recovery.
    proxy_epochs: BTreeMap<usize, u64>,
    /// Outstanding admitted basic posts per target endpoint index
    /// (credit window; maintained when the queue cap or this rank's
    /// tenant soft quota is armed).
    window: BTreeMap<usize, usize>,
    /// Request slots waiting for a credit, deficit-round-robin across
    /// tenants (exactly the PR-5 FIFO when a single tenant is armed).
    deferred: DrrScheduler,
    /// Basic requests posted and not yet terminally settled (hard-quota
    /// accounting; cheap enough to maintain unconditionally).
    live_basic: usize,
    /// Completed (or terminally failed) sequence numbers not yet folded
    /// into `ack_horizon` (journal-truncation tracking; maintained only
    /// when the journal cap is armed).
    completed_seqs: BTreeSet<u64>,
    /// Highest seq such that every seq up to and including it has
    /// completed; piggybacked on RTS/RTR so proxies can truncate their
    /// FIN journals.
    ack_horizon: u64,
}

/// Host-side engine of the offload framework. One per application rank.
pub struct Offload {
    ctx: ProcessCtx,
    cluster: ClusterCtx,
    rank: usize,
    tenant: TenantId,
    ep: EpId,
    proxy_ep: EpId,
    proxy_idx: usize,
    cfg: OffloadConfig,
    chan: Channel,
    st: RefCell<HostState>,
}

impl Offload {
    /// `Init_Offload()`: attach this rank to the framework. The cluster
    /// must have been built with proxies running
    /// [`crate::proxy::proxy_main`] and the *same* [`OffloadConfig`].
    ///
    /// The GVMI-ID exchange the paper performs here (once per protection
    /// domain) is modelled by the fabric assigning each proxy its GVMI at
    /// endpoint creation; the exchange itself is a one-time O(µs) cost we
    /// fold into startup.
    pub fn init(
        rank: usize,
        ctx: ProcessCtx,
        cluster: ClusterCtx,
        inbox: &Inbox,
        cfg: OffloadConfig,
    ) -> Offload {
        assert!(
            cluster.proxies_per_dpu() > 0,
            "offload requires DPU proxies; build the cluster with proxy_main"
        );
        let chan = inbox.channel(|m| match m {
            NetMsg::Packet(p) => p.body.is::<CtrlMsg>(),
            NetMsg::Notify(p) => p.is::<CtrlMsg>(),
            NetMsg::Cqe(c) => c.wrid & WRID_MASK == WRID_OFF_HOST,
        });
        let ep = cluster.host_ep(rank);
        let proxy_ep = cluster.proxy_for_rank(rank);
        let proxy_idx = rank % cluster.proxies_per_dpu();
        let n_proxies = cluster.proxies_per_dpu();
        let (fault, ctrl_bytes) = (cfg.fault, cfg.ctrl_bytes);
        // Hosts arm the ctrl retry budget (shed-and-surface is a typed
        // request failure here); proxies never do — see
        // [`OffloadConfig::ctrl_knobs`].
        let knobs = cfg.ctrl_knobs(true);
        let cache_budget = cfg.cache_budget;
        // Arm the fabric's data-plane fault stream (set-once: the first
        // rank's plan wins, later inits are no-ops). Unarmed plans leave
        // the fabric untouched, so clean runs stay byte-identical.
        if fault.payload_faults() {
            cluster.fabric().set_payload_faults(rdma::PayloadFaultPlan {
                flip_pm: fault.flip_pm,
                torn_pm: fault.torn_pm,
                drop_pm: fault.data_drop_pm,
                seed: fault.seed,
            });
        }
        let tenant = cfg.tenant_of(rank);
        Offload {
            ctx,
            cluster,
            rank,
            tenant,
            ep,
            proxy_ep,
            proxy_idx,
            cfg,
            chan,
            st: RefCell::new(HostState {
                reqs: Vec::new(),
                next_msg_seq: 0,
                gvmi_cache: if cache_budget > 0 {
                    RankAddrCache::with_capacity(n_proxies, cache_budget)
                } else {
                    RankAddrCache::new(n_proxies)
                },
                ib_cache: RankAddrCache::new(1),
                groups: Vec::new(),
                metas_from: BTreeMap::new(),
                rel: ReliableLink::new(fault, knobs, ctrl_bytes, false, ep),
                proxy_epochs: BTreeMap::new(),
                window: BTreeMap::new(),
                deferred: DrrScheduler::default(),
                live_basic: 0,
                completed_seqs: BTreeSet::new(),
                ack_horizon: 0,
            }),
        }
    }

    /// This rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The tenant this rank is attributed to (0 unless the config arms
    /// a multi-tenant roster; see [`OffloadConfig::tenant_of`]).
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.cluster.world_size()
    }

    /// Process context (compute, tracing).
    pub fn ctx(&self) -> &ProcessCtx {
        &self.ctx
    }

    /// The cluster roster.
    pub fn cluster(&self) -> &ClusterCtx {
        &self.cluster
    }

    /// The configuration this engine was initialized with.
    pub fn config(&self) -> &OffloadConfig {
        &self.cfg
    }

    /// Allocate a fresh basic-request slot and its transfer id
    /// (crate-internal extensions).
    pub(crate) fn new_basic_req(&self) -> (OffloadReq, u64) {
        let (req, msg_id) = self.new_req();
        (OffloadReq(req), msg_id)
    }

    /// Ship a control message to this rank's mapped proxy
    /// (crate-internal extensions). `req` ties the message to a basic
    /// request slot for replay-after-restart and abandonment errors.
    pub(crate) fn send_ctrl_to_proxy(&self, msg: CtrlMsg, req: Option<usize>) {
        let origin = match req {
            Some(r) => ReqOrigin::Basic(r),
            None => ReqOrigin::Free,
        };
        self.post_ctrl(self.proxy_ep, self.cfg.ctrl_bytes, msg, origin);
        self.ctx.stat_incr("offload.ctrl.host_dpu", 1);
    }

    /// Ship one ctrl message: through the reliable link when the fault
    /// plan arms it, as a bare packet otherwise (byte-identical to the
    /// pre-reliability protocol on clean runs). When proxies can crash,
    /// a basic-origin message is also stored on its slot for replay.
    fn post_ctrl(&self, to: EpId, bytes: u64, msg: CtrlMsg, origin: ReqOrigin) {
        crate::profile_scope!("ctrl_encode");
        if let ReqOrigin::Basic(r) = origin {
            if self.cfg.fault.crash_at_step > 0 {
                self.st.borrow_mut().reqs[r].replay = Some((to, msg.clone()));
            }
        }
        let fab = self.cluster.fabric();
        if self.cfg.fault.reliable() {
            self.st
                .borrow_mut()
                .rel
                .send(&self.ctx, fab, to, bytes, msg, origin);
        } else {
            fab.send_packet(&self.ctx, self.ep, to, bytes, Box::new(msg))
                .expect("control message send");
        }
    }

    /// CRC32 of a posted payload, computed only when the run injects
    /// payload faults (clean runs skip the checksum entirely).
    fn payload_crc(&self, addr: VAddr, len: u64) -> Option<u32> {
        self.cfg.fault.payload_faults().then(|| {
            self.cluster
                .fabric()
                .crc32(self.ep, addr, len)
                .expect("CRC of a posted buffer")
        })
    }

    /// Completion horizon piggybacked on RTS/RTR (0 unless the journal
    /// cap is armed).
    fn horizon(&self) -> u64 {
        if self.cfg.journal_cap == 0 {
            0
        } else {
            self.st.borrow().ack_horizon
        }
    }

    /// Whether host-side admission control is live: the global queue
    /// cap, or this rank's tenant soft quota under a multi-tenant
    /// roster. Off on single-tenant uncapped runs (byte-identical to
    /// the pre-credit engine).
    fn credit_armed(&self) -> bool {
        self.cfg.queue_cap > 0
            || (self.cfg.multi_tenant() && self.cfg.tenant_soft_quota(self.tenant) > 0)
    }

    /// This rank's tenant soft quota on admitted-unfinished posts
    /// (0 = unarmed; only a multi-tenant roster arms it).
    fn soft_quota(&self) -> usize {
        if self.cfg.multi_tenant() {
            self.cfg.tenant_soft_quota(self.tenant)
        } else {
            0
        }
    }

    /// Post a basic request through the admission policy: shed
    /// immediately when the tenant is over its hard quota, deferred to
    /// the DRR scheduler when the target endpoint (or the tenant soft
    /// quota) is out of credit, admitted otherwise.
    fn post_basic(&self, req: usize, to: EpId, bytes: u64, msg: CtrlMsg) {
        if self.cfg.multi_tenant() {
            let hard = self.cfg.tenant_hard_quota(self.tenant);
            if hard > 0 {
                let (over, msg_id) = {
                    let st = self.st.borrow();
                    // `live_basic` already counts this request's slot.
                    (st.live_basic > hard, st.reqs[req].msg_id)
                };
                if over {
                    self.ctx.stat_incr("offload.quota.sheds", 1);
                    self.ctx.emit(&ProtoEvent::QuotaShed {
                        tenant: self.tenant,
                        rank: self.rank,
                        msg_id,
                    });
                    self.fail_basic(
                        req,
                        OffloadError::QuotaExceeded {
                            tenant: self.tenant,
                            msg_id,
                        },
                        0,
                    );
                    return;
                }
            }
        }
        if self.credit_armed() {
            let soft = self.soft_quota();
            let (defer, msg_id) = {
                let mut st = self.st.borrow_mut();
                st.reqs[req].post = Some((to, bytes, msg.clone()));
                let used = st.window.get(&to.index()).copied().unwrap_or(0);
                let ep_full = self.cfg.queue_cap > 0 && used >= self.cfg.queue_cap;
                let quota_full = soft > 0 && st.window.values().sum::<usize>() >= soft;
                (ep_full || quota_full, st.reqs[req].msg_id)
            };
            if defer {
                self.st.borrow_mut().deferred.push(self.tenant, req);
                self.ctx.stat_incr("offload.credit.deferrals", 1);
                self.ctx.emit(&ProtoEvent::CreditDeferred {
                    rank: self.rank,
                    msg_id,
                });
                return;
            }
        }
        self.admit_post(req, to, bytes, msg);
    }

    /// Charge a credit (when capped) and actually ship the post.
    fn admit_post(&self, req: usize, to: EpId, bytes: u64, mut msg: CtrlMsg) {
        crate::profile_scope!("credit_admission");
        // A deferred post may have waited through many completions:
        // refresh the piggybacked completion horizon so the proxy's
        // journal truncation tracks reality, not the build instant.
        // (With the journal cap unarmed, horizon() is 0 — no change.)
        if let CtrlMsg::Rts { ack_horizon, .. } | CtrlMsg::Rtr { ack_horizon, .. } = &mut msg {
            *ack_horizon = self.horizon();
        }
        {
            let mut st = self.st.borrow_mut();
            if self.credit_armed() {
                *st.window.entry(to.index()).or_insert(0) += 1;
                st.reqs[req].window_ep = Some(to.index());
            }
            st.reqs[req].target = Some(to);
        }
        self.post_ctrl(to, bytes, msg, ReqOrigin::Basic(req));
        self.ctx.stat_incr("offload.ctrl.host_dpu", 1);
    }

    /// Return the credit a finished/refused request held, if any.
    fn release_window(&self, req: usize) {
        let mut st = self.st.borrow_mut();
        if let Some(ep) = st.reqs[req].window_ep.take() {
            if let Some(w) = st.window.get_mut(&ep) {
                *w = w.saturating_sub(1);
            }
        }
    }

    /// Admit up to `limit` deferred posts through the DRR scheduler.
    /// Within a tenant the queue is served FIFO and stops at the first
    /// head whose target still has no credit; across tenants a blocked
    /// head only yields that tenant's turn. With one tenant armed this
    /// is exactly the PR-5 FIFO flush.
    fn flush_deferred(&self, limit: usize) {
        if !self.credit_armed() {
            return;
        }
        let queue_cap = self.cfg.queue_cap;
        let soft = self.soft_quota();
        // Admission bookkeeping happens inside the scheduler callback
        // (under one state borrow, so the endpoint cap sees each earlier
        // grant); the granted posts themselves ship after it ends —
        // post_ctrl re-borrows state for replay and the reliable link.
        let mut granted: Vec<(usize, u64, EpId, u64, CtrlMsg)> = Vec::new();
        {
            let mut st = self.st.borrow_mut();
            let horizon = if self.cfg.journal_cap == 0 {
                0
            } else {
                st.ack_horizon
            };
            let HostState {
                reqs,
                window,
                deferred,
                ..
            } = &mut *st;
            deferred.flush(
                limit,
                |t| self.cfg.tenant_weight(t) as u64,
                |req| {
                    let slot = &mut reqs[req];
                    if slot.done || slot.error.is_some() {
                        return Deferred::Dead;
                    }
                    let Some((to, bytes, mut msg)) = slot.post.clone() else {
                        return Deferred::Dead;
                    };
                    let used = window.get(&to.index()).copied().unwrap_or(0);
                    if queue_cap > 0 && used >= queue_cap {
                        return Deferred::Blocked;
                    }
                    if soft > 0 && window.values().sum::<usize>() >= soft {
                        return Deferred::Blocked;
                    }
                    // Mirrors admit_post: refresh the piggybacked
                    // completion horizon, charge the credit, record the
                    // target for cancel routing.
                    if let CtrlMsg::Rts { ack_horizon, .. } | CtrlMsg::Rtr { ack_horizon, .. } =
                        &mut msg
                    {
                        *ack_horizon = horizon;
                    }
                    *window.entry(to.index()).or_insert(0) += 1;
                    slot.window_ep = Some(to.index());
                    slot.target = Some(to);
                    granted.push((req, slot.msg_id, to, bytes, msg));
                    Deferred::Admitted
                },
            );
        }
        for (req, msg_id, to, bytes, msg) in granted {
            crate::profile_scope!("credit_admission");
            if self.cfg.multi_tenant() {
                self.ctx.stat_incr("offload.credit.drr_grants", 1);
                self.ctx.emit(&ProtoEvent::DrrGrant {
                    tenant: self.tenant,
                    rank: self.rank,
                    msg_id,
                });
            }
            self.post_ctrl(to, bytes, msg, ReqOrigin::Basic(req));
            self.ctx.stat_incr("offload.ctrl.host_dpu", 1);
        }
    }

    /// Pin the GVMI-cache entry a request's send buffer occupies so the
    /// budgeted cache never evicts an in-flight registration.
    fn pin_gvmi(&self, req: usize, addr: VAddr, len: u64) {
        if self.cfg.cache_budget == 0 || !self.cfg.use_gvmi_cache {
            return;
        }
        let mut st = self.st.borrow_mut();
        if st.gvmi_cache.pin(self.proxy_idx, addr.0, len) {
            st.reqs[req].pin = Some((self.proxy_idx, addr.0, len));
        }
    }

    /// Drop a request's cache pin (completion or terminal failure).
    fn unpin_gvmi(&self, req: usize) {
        let mut st = self.st.borrow_mut();
        if let Some((rank, addr, len)) = st.reqs[req].pin.take() {
            st.gvmi_cache.unpin(rank, addr, len);
        }
    }

    /// Fold a terminally-settled transfer id into the ack horizon
    /// (journal-truncation tracking; no-op unless the cap is armed).
    fn note_settled(&self, msg_id: u64) {
        if self.cfg.journal_cap == 0 {
            return;
        }
        if (msg_id >> 32) as usize != self.rank {
            return;
        }
        let mut st = self.st.borrow_mut();
        st.completed_seqs.insert(msg_id & 0xFFFF_FFFF);
        let mut h = st.ack_horizon;
        while st.completed_seqs.remove(&(h + 1)) {
            h += 1;
        }
        st.ack_horizon = h;
    }

    // ---- Basic primitives ----

    /// `Send_Offload`: non-blocking offloaded send. The transfer is driven
    /// entirely by the DPU proxy; this call only registers (through the
    /// GVMI cache) and posts one RTS control message.
    pub fn send_offload(&self, addr: VAddr, len: u64, dst: usize, tag: u64) -> OffloadReq {
        assert!(dst < self.size(), "send_offload: bad destination {dst}");
        let (req, msg_id) = self.new_req();
        self.ctx.emit(&ProtoEvent::HostReqPosted {
            rank: self.rank,
            msg_id,
            peer: dst,
            tag,
            bytes: len,
            dir: ReqDir::Send,
        });
        let (mkey, src_rkey) = match self.cfg.data_path {
            // With registration failure armed, carry both keys so the
            // proxy can fall back to the staging path per message.
            DataPath::Gvmi if self.cfg.fault.fallback_enabled() => (
                Some(self.cached_gvmi_reg(addr, len)),
                Some(self.cached_ib_reg(addr, len)),
            ),
            DataPath::Gvmi => (Some(self.cached_gvmi_reg(addr, len)), None),
            // Staging: the proxy pulls the payload with an RDMA READ
            // through a plain rkey (BluesMPI-style worker read).
            DataPath::Staging => (None, Some(self.cached_ib_reg(addr, len))),
        };
        if mkey.is_some() {
            self.pin_gvmi(req, addr, len);
        }
        let msg = CtrlMsg::Rts {
            src_rank: self.rank,
            dst_rank: dst,
            tag,
            addr,
            len,
            mkey,
            src_rkey,
            src_req: req,
            src_pid: self.ctx.pid(),
            msg_id,
            crc: self.payload_crc(addr, len),
            ack_horizon: self.horizon(),
            tenant: self.tenant,
        };
        self.post_basic(req, self.proxy_ep, self.cfg.ctrl_bytes, msg);
        OffloadReq(req)
    }

    /// `Recv_Offload`: non-blocking offloaded receive. Registers the
    /// buffer (IB cache) and sends one RTR control message to the proxy
    /// *on the sender's node* — the proxy that will move the data.
    pub fn recv_offload(&self, addr: VAddr, len: u64, src: usize, tag: u64) -> OffloadReq {
        assert!(src < self.size(), "recv_offload: bad source {src}");
        let (req, msg_id) = self.new_req();
        self.ctx.emit(&ProtoEvent::HostReqPosted {
            rank: self.rank,
            msg_id,
            peer: src,
            tag,
            bytes: len,
            dir: ReqDir::Recv,
        });
        let rkey = self.cached_ib_reg(addr, len);
        let src_proxy = self.cluster.proxy_for_rank(src);
        let msg = CtrlMsg::Rtr {
            src_rank: src,
            dst_rank: self.rank,
            tag,
            addr,
            len,
            rkey,
            dst_req: req,
            dst_pid: self.ctx.pid(),
            msg_id,
            ack_horizon: self.horizon(),
            tenant: self.tenant,
        };
        self.post_basic(req, src_proxy, self.cfg.ctrl_bytes, msg);
        OffloadReq(req)
    }

    /// Has the request completed? Drains pending completions.
    pub fn test(&self, req: OffloadReq) -> bool {
        self.drain();
        self.st.borrow().reqs[req.0].done
    }

    /// `Wait`: block until `req` completes — or fails permanently, which
    /// only a fault plan can cause; check [`Offload::req_error`] then.
    pub fn wait(&self, req: OffloadReq) {
        self.drain();
        loop {
            {
                let st = self.st.borrow();
                let slot = &st.reqs[req.0];
                if slot.done || slot.error.is_some() {
                    break;
                }
            }
            let msg = self.chan.next_blocking(&self.ctx);
            self.handle(msg);
        }
    }

    /// Terminal failure of a request, if any: set when its ctrl message
    /// exhausted the reliability layer's retransmission budget. Always
    /// `None` on clean runs.
    pub fn req_error(&self, req: OffloadReq) -> Option<OffloadError> {
        self.st.borrow().reqs[req.0].error
    }

    /// `Wait` with a deadline: block until `req` completes, fails, or
    /// `timeout` simulated time elapses. On expiry the request is
    /// cancelled (the proxy is told to reap it) and
    /// [`OffloadError::DeadlineExceeded`] is returned; a cancelled
    /// request never completes afterwards.
    pub fn wait_timeout(&self, req: OffloadReq, timeout: SimDelta) -> Result<(), OffloadError> {
        self.drain();
        {
            let st = self.st.borrow();
            let slot = &st.reqs[req.0];
            if slot.done {
                return Ok(());
            }
            if let Some(e) = slot.error {
                return Err(e);
            }
        }
        self.ctx.deliver_self(
            timeout,
            Box::new(NetMsg::Notify(Box::new(CtrlMsg::DeadlineTick {
                req: req.0,
            }))),
        );
        loop {
            {
                let st = self.st.borrow();
                let slot = &st.reqs[req.0];
                if slot.done {
                    return Ok(());
                }
                if let Some(e) = slot.error {
                    return Err(e);
                }
            }
            let msg = self.chan.next_blocking(&self.ctx);
            self.handle(msg);
        }
    }

    /// Cancel an in-flight request. The slot fails with
    /// [`OffloadError::Cancelled`] and the proxy reaps any queued
    /// descriptors; a no-op when the request has already settled.
    pub fn cancel(&self, req: OffloadReq) {
        self.drain();
        let msg_id = self.st.borrow().reqs[req.0].msg_id;
        self.cancel_req(req.0, OffloadError::Cancelled { msg_id });
    }

    /// Wait for every request in `reqs`.
    pub fn wait_all(&self, reqs: &[OffloadReq]) {
        for &r in reqs {
            self.wait(r);
        }
    }

    /// `Finalize_Offload`: tell the mapped proxy this rank is done. All
    /// outstanding requests must have completed (or failed with a typed
    /// [`OffloadError`] under a fault plan).
    pub fn finalize(&self) {
        self.drain();
        {
            let st = self.st.borrow();
            assert!(
                st.reqs.iter().all(|r| r.done || r.error.is_some()),
                "finalize with incomplete basic requests"
            );
            assert!(
                st.groups
                    .iter()
                    .all(|g| g.fin_gen == g.gen || g.error.is_some()),
                "finalize with incomplete group requests"
            );
        }
        self.post_ctrl(
            self.proxy_ep,
            self.cfg.ctrl_bytes,
            CtrlMsg::Shutdown { rank: self.rank },
            ReqOrigin::Free,
        );
        // Under a lossy plan the shutdown itself needs acking (and the
        // proxy won't quiesce while we hold unacked messages): pump the
        // ctrl plane until the pending table drains. Abandonment bounds
        // this loop even against a dead peer.
        while self.st.borrow().rel.has_pending() {
            let msg = self.chan.next_blocking(&self.ctx);
            self.handle(msg);
        }
        self.ctx
            .emit(&ProtoEvent::HostFinalized { rank: self.rank });
    }

    // ---- Group primitives ----

    /// `Group_Offload_start`: begin recording a communication graph.
    pub fn group_start(&self) -> GroupRequest {
        let mut st = self.st.borrow_mut();
        st.groups.push(GroupState {
            ops: Vec::new(),
            ended: false,
            gen: 0,
            fin_gen: 0,
            wire: None,
            proxy_cached: false,
            error: None,
        });
        GroupRequest(st.groups.len() - 1)
    }

    /// `Send_Goffload`: record an offloaded send in the graph.
    pub fn group_send(&self, req: GroupRequest, addr: VAddr, len: u64, dst: usize, tag: u64) {
        assert!(dst < self.size(), "group_send: bad destination {dst}");
        let mut st = self.st.borrow_mut();
        let g = &mut st.groups[req.0];
        assert!(!g.ended, "group_send after group_end");
        g.ops.push(GroupOp::Send {
            addr,
            len,
            dst,
            tag,
        });
    }

    /// `Recv_Goffload`: record an offloaded receive in the graph.
    pub fn group_recv(&self, req: GroupRequest, addr: VAddr, len: u64, src: usize, tag: u64) {
        assert!(src < self.size(), "group_recv: bad source {src}");
        let mut st = self.st.borrow_mut();
        let g = &mut st.groups[req.0];
        assert!(!g.ended, "group_recv after group_end");
        g.ops.push(GroupOp::Recv {
            addr,
            len,
            src,
            tag,
        });
    }

    /// `Local_barrier_Goffload`: operations recorded after this point
    /// start only after everything before it has completed *on the DPU*,
    /// with no host involvement.
    pub fn group_barrier(&self, req: GroupRequest) {
        let mut st = self.st.borrow_mut();
        let g = &mut st.groups[req.0];
        assert!(!g.ended, "group_barrier after group_end");
        g.ops.push(GroupOp::Barrier);
    }

    /// `Group_Offload_end`: finish recording.
    pub fn group_end(&self, req: GroupRequest) {
        let mut st = self.st.borrow_mut();
        st.groups[req.0].ended = true;
    }

    /// `Group_Offload_call`: offload the recorded graph to the proxy. On
    /// the first call this registers all buffers, gathers receive metadata
    /// from the destination hosts, and ships the full packet; later calls
    /// hit the caches and send a single small execute message (paper
    /// §VII-D).
    pub fn group_call(&self, req: GroupRequest) {
        assert!(
            self.st.borrow().groups[req.0].ended,
            "group_call before group_end"
        );
        self.drain();
        let gen = {
            let mut st = self.st.borrow_mut();
            let g = &mut st.groups[req.0];
            g.gen += 1;
            // A fresh generation gets a fresh verdict; the previous
            // generation's failure was surfaced by its `group_wait`.
            g.error = None;
            g.gen
        };
        let need_build = self.st.borrow().groups[req.0].wire.is_none();
        let crcs = if need_build {
            self.build_wire(req);
            None
        } else {
            self.refresh_send_crcs(req)
        };
        let use_cache = self.cfg.use_group_cache;
        let cached = self.st.borrow().groups[req.0].proxy_cached;
        if cached && use_cache {
            self.send_group_exec(req, gen, crcs);
        } else {
            self.send_group_packet(req, gen);
            self.st.borrow_mut().groups[req.0].proxy_cached = true;
        }
        // The overlap window (paper Figs. 12/14) opens when control
        // returns to the application.
        self.ctx.emit(&ProtoEvent::GroupCallReturned {
            host_rank: self.rank,
            req_id: req.0,
            gen,
        });
    }

    /// `Group_Wait`: block until generation `gen` (the latest call) of
    /// the group request completes on the DPU — or fails permanently
    /// (group ctrl abandonment, data-integrity exhaustion, or a group
    /// deadline), in which case the typed error is returned instead of
    /// stalling forever. Always `Ok` on clean runs.
    pub fn group_wait(&self, req: GroupRequest) -> Result<(), OffloadError> {
        self.drain();
        let gen = loop {
            {
                let st = self.st.borrow();
                let g = &st.groups[req.0];
                if g.fin_gen >= g.gen {
                    break g.gen;
                }
                if let Some(e) = g.error {
                    return Err(e);
                }
            }
            let msg = self.chan.next_blocking(&self.ctx);
            self.handle(msg);
        };
        self.ctx.emit(&ProtoEvent::GroupWaitDone {
            host_rank: self.rank,
            req_id: req.0,
            gen,
        });
        Ok(())
    }

    /// `Group_Wait` with a deadline: like [`Offload::group_wait`], but
    /// the in-flight generation is failed (and the error returned) if it
    /// has not finished after `timeout` simulated time.
    pub fn group_wait_timeout(
        &self,
        req: GroupRequest,
        timeout: SimDelta,
    ) -> Result<(), OffloadError> {
        self.drain();
        let armed = {
            let st = self.st.borrow();
            let g = &st.groups[req.0];
            g.fin_gen < g.gen && g.error.is_none()
        };
        if armed {
            self.ctx.deliver_self(
                timeout,
                Box::new(NetMsg::Notify(Box::new(CtrlMsg::DeadlineTick {
                    req: GROUP_DEADLINE_BASE + req.0,
                }))),
            );
        }
        self.group_wait(req)
    }

    /// Terminal failure of the latest group generation, if any.
    pub fn group_error(&self, req: GroupRequest) -> Option<OffloadError> {
        self.st.borrow().groups[req.0].error
    }

    /// Has the latest generation of `req` settled (completed or failed
    /// permanently)? Drains completions.
    pub fn group_test(&self, req: GroupRequest) -> bool {
        self.drain();
        let st = self.st.borrow();
        let g = &st.groups[req.0];
        g.fin_gen >= g.gen || g.error.is_some()
    }

    // ---- internals ----

    fn new_req(&self) -> (usize, u64) {
        let mut st = self.st.borrow_mut();
        st.next_msg_seq += 1;
        st.live_basic += 1;
        let msg_id = ((self.rank as u64) << 32) | st.next_msg_seq;
        st.reqs.push(ReqSlot {
            done: false,
            msg_id,
            error: None,
            replay: None,
            target: None,
            post: None,
            window_ep: None,
            attempts: 0,
            pin: None,
        });
        (st.reqs.len() - 1, msg_id)
    }

    /// Allocate a transfer id outside a request slot (group wire entries
    /// share the per-rank namespace with basic requests).
    fn alloc_msg_id(&self) -> u64 {
        let mut st = self.st.borrow_mut();
        st.next_msg_seq += 1;
        ((self.rank as u64) << 32) | st.next_msg_seq
    }

    /// Host-side GVMI registration through the array-of-BSTs cache.
    fn cached_gvmi_reg(&self, addr: VAddr, len: u64) -> MrKey {
        let fab = self.cluster.fabric();
        let gvmi = fab.gvmi_of(self.proxy_ep).expect("proxy has a GVMI");
        if self.cfg.use_gvmi_cache {
            let hit = self
                .st
                .borrow_mut()
                .gvmi_cache
                .get(self.proxy_idx, addr.0, len)
                .copied();
            self.ctx.emit(&ProtoEvent::HostCacheLookup {
                rank: self.rank,
                cache: HostCacheKind::Gvmi,
                outcome: if hit.is_some() {
                    CacheOutcome::Hit
                } else {
                    CacheOutcome::Miss
                },
            });
            if let Some(k) = hit {
                self.ctx.stat_incr("offload.gvmi_cache.host.hit", 1);
                return k;
            }
            self.ctx.stat_incr("offload.gvmi_cache.host.miss", 1);
        }
        let mkey = fab
            .reg_mr_gvmi(&self.ctx, self.ep, addr, len, gvmi)
            .expect("GVMI registration of a valid buffer");
        if self.cfg.use_gvmi_cache {
            let evicted = self
                .st
                .borrow_mut()
                .gvmi_cache
                .insert(self.proxy_idx, addr.0, len, mkey);
            if evicted.is_some() {
                self.ctx.emit(&ProtoEvent::CacheEvicted {
                    rank: self.rank,
                    side: CacheSide::HostGvmi,
                });
            }
        }
        mkey
    }

    /// Host-side IB registration through the cache.
    fn cached_ib_reg(&self, addr: VAddr, len: u64) -> MrKey {
        if self.cfg.use_gvmi_cache {
            let hit = self.st.borrow_mut().ib_cache.get(0, addr.0, len).copied();
            self.ctx.emit(&ProtoEvent::HostCacheLookup {
                rank: self.rank,
                cache: HostCacheKind::Ib,
                outcome: if hit.is_some() {
                    CacheOutcome::Hit
                } else {
                    CacheOutcome::Miss
                },
            });
            if let Some(k) = hit {
                self.ctx.stat_incr("offload.ib_cache.host.hit", 1);
                return k;
            }
            self.ctx.stat_incr("offload.ib_cache.host.miss", 1);
        }
        let key = self
            .cluster
            .fabric()
            .reg_mr(&self.ctx, self.ep, addr, len)
            .expect("IB registration of a valid buffer");
        if self.cfg.use_gvmi_cache {
            let evicted = self.st.borrow_mut().ib_cache.insert(0, addr.0, len, key);
            if evicted.is_some() {
                self.ctx.emit(&ProtoEvent::CacheEvicted {
                    rank: self.rank,
                    side: CacheSide::HostIb,
                });
            }
        }
        key
    }

    /// First-call phase of a group request: register everything, gather
    /// receive metadata from the peers my sends target, and build the wire
    /// entries (paper Fig. 9).
    fn build_wire(&self, req: GroupRequest) {
        let ops = self.st.borrow().groups[req.0].ops.clone();
        // Register send buffers (GVMI cache) and receive buffers (IB cache).
        let mut send_keys = Vec::new();
        let mut recv_keys = Vec::new();
        for op in &ops {
            match op {
                GroupOp::Send { addr, len, .. } => match self.cfg.data_path {
                    DataPath::Gvmi => {
                        let mkey = Some(self.cached_gvmi_reg(*addr, *len));
                        // With registration failure armed, also carry an
                        // rkey so the proxy can stage this entry instead.
                        let rkey = self
                            .cfg
                            .fault
                            .fallback_enabled()
                            .then(|| self.cached_ib_reg(*addr, *len));
                        send_keys.push((mkey, rkey))
                    }
                    DataPath::Staging => {
                        send_keys.push((None, Some(self.cached_ib_reg(*addr, *len))))
                    }
                },
                GroupOp::Recv { addr, len, .. } => {
                    recv_keys.push(self.cached_ib_reg(*addr, *len));
                    send_keys.push((None, None));
                }
                GroupOp::Barrier => send_keys.push((None, None)),
            }
        }
        // Send my receive metadata to each source rank (sorted by rank so
        // posting order — and therefore timing — is deterministic).
        let mut per_src: std::collections::BTreeMap<usize, Vec<MetaEntry>> =
            std::collections::BTreeMap::new();
        let mut rk = 0usize;
        for op in &ops {
            if let GroupOp::Recv { addr, src, tag, .. } = op {
                per_src
                    .entry(*src)
                    .or_default()
                    .push((*tag, *addr, recv_keys[rk]));
                rk += 1;
            }
        }
        for (src, entries) in per_src {
            let n = entries.len() as u64;
            self.post_ctrl(
                self.cluster.host_ep(src),
                self.cfg.ctrl_bytes + self.cfg.entry_bytes * n,
                CtrlMsg::RecvMeta {
                    dst_rank: self.rank,
                    dst_req_id: req.0,
                    entries,
                },
                ReqOrigin::Free,
            );
            self.ctx.emit(&ProtoEvent::RecvMetaSent {
                from_rank: self.rank,
                to_rank: src,
                req_id: req.0,
            });
        }
        // Gather metadata from every destination of my sends (sorted, for
        // the same determinism reason).
        let mut needed: std::collections::BTreeMap<usize, usize> =
            std::collections::BTreeMap::new();
        for op in &ops {
            if let GroupOp::Send { dst, .. } = op {
                *needed.entry(*dst).or_insert(0) += 1;
            }
        }
        let mut metas: BTreeMap<usize, (usize, VecDeque<MetaEntry>)> = BTreeMap::new();
        for (&dst, &cnt) in &needed {
            loop {
                let got = {
                    let mut st = self.st.borrow_mut();
                    st.metas_from
                        .get_mut(&dst)
                        .and_then(|q| q.queue.pop_front())
                };
                if let Some((dst_req_id, entries)) = got {
                    assert!(
                        entries.len() >= cnt,
                        "peer {dst} granted {} buffers, need {cnt}",
                        entries.len()
                    );
                    metas.insert(dst, (dst_req_id, entries.into_iter().collect()));
                    break;
                }
                let msg = self.chan.next_blocking(&self.ctx);
                self.handle(msg);
            }
        }
        // Match each send with the destination's next receive entry of the
        // same tag (paper: "matched ... based on destination rank, tag").
        let mut wire = Vec::with_capacity(ops.len());
        for (sk, op) in ops.iter().enumerate() {
            match op {
                GroupOp::Send {
                    addr,
                    len,
                    dst,
                    tag,
                } => {
                    let (dst_req_id, entries) = metas.get_mut(dst).expect("meta gathered");
                    let pos = entries
                        .iter()
                        .position(|(t, _, _)| t == tag)
                        .unwrap_or_else(|| panic!("no matching recv at {dst} for tag {tag}"));
                    let (_, dst_addr, dst_rkey) = entries.remove(pos).expect("present");
                    let (mkey, src_rkey) = send_keys[sk];
                    wire.push(WireEntry::Send {
                        addr: *addr,
                        len: *len,
                        mkey: mkey.unwrap_or(MrKey::invalid()),
                        src_rkey: src_rkey.unwrap_or(MrKey::invalid()),
                        dst_rank: *dst,
                        tag: *tag,
                        dst_addr,
                        dst_rkey,
                        dst_req_id: *dst_req_id,
                        msg_id: self.alloc_msg_id(),
                        crc: self.payload_crc(*addr, *len),
                    });
                }
                GroupOp::Recv { src, tag, .. } => {
                    wire.push(WireEntry::Recv {
                        src_rank: *src,
                        tag: *tag,
                    });
                }
                GroupOp::Barrier => wire.push(WireEntry::Barrier),
            }
        }
        self.st.borrow_mut().groups[req.0].wire = Some(wire);
    }

    /// Re-hash every send entry of a built group against its buffer's
    /// current bytes (payload-fault runs only; `None` otherwise). The
    /// application may rewrite a send buffer between calls, so each
    /// generation is verified against the CRCs taken at its own call:
    /// the refreshed wire entries ride any full `GroupPacket` (including
    /// a restart replay), and the returned list, one CRC per send entry
    /// in wire order, rides the cached `GroupExec`.
    fn refresh_send_crcs(&self, req: GroupRequest) -> Option<Vec<u32>> {
        if !self.cfg.fault.payload_faults() {
            return None;
        }
        let mut st = self.st.borrow_mut();
        let wire = st.groups.get_mut(req.0)?.wire.as_mut()?;
        let mut crcs = Vec::new();
        for entry in wire {
            if let WireEntry::Send { addr, len, crc, .. } = entry {
                *crc = self.payload_crc(*addr, *len);
                crcs.extend(*crc);
            }
        }
        Some(crcs)
    }

    fn send_group_packet(&self, req: GroupRequest, gen: u64) {
        let entries = self.st.borrow().groups[req.0]
            .wire
            .clone()
            .expect("wire built");
        let n = entries.len() as u64;
        self.post_ctrl(
            self.proxy_ep,
            self.cfg.ctrl_bytes + self.cfg.entry_bytes * n,
            CtrlMsg::GroupPacket {
                key: GroupKey {
                    host_rank: self.rank,
                    req_id: req.0,
                },
                gen,
                entries,
                host_pid: self.ctx.pid(),
            },
            ReqOrigin::Group(req.0),
        );
        self.ctx.emit(&ProtoEvent::GroupPacketSent {
            host_rank: self.rank,
            req_id: req.0,
        });
        self.ctx.stat_incr("offload.ctrl.host_dpu", 1);
        self.ctx.stat_incr("offload.group.packets", 1);
    }

    fn send_group_exec(&self, req: GroupRequest, gen: u64, crcs: Option<Vec<u32>>) {
        let crc_bytes = crcs.as_ref().map_or(0, |c| 4 * c.len() as u64);
        self.post_ctrl(
            self.proxy_ep,
            self.cfg.ctrl_bytes + crc_bytes,
            CtrlMsg::GroupExec {
                key: GroupKey {
                    host_rank: self.rank,
                    req_id: req.0,
                },
                gen,
                crcs,
            },
            ReqOrigin::Group(req.0),
        );
        self.ctx.emit(&ProtoEvent::GroupExecSent {
            host_rank: self.rank,
            req_id: req.0,
            gen,
        });
        self.ctx.stat_incr("offload.ctrl.host_dpu", 1);
        self.ctx.stat_incr("offload.group.execs", 1);
    }

    /// Drain pending completions without blocking.
    fn drain(&self) {
        while let Some(msg) = self.chan.try_next(&self.ctx) {
            self.handle(msg);
        }
    }

    fn handle(&self, msg: NetMsg) {
        let decoded = match msg {
            NetMsg::Packet(p) => p.body.downcast::<CtrlMsg>().ok().map(|b| *b),
            NetMsg::Notify(b) => b.downcast::<CtrlMsg>().ok().map(|b| *b),
            NetMsg::Cqe(_) => return, // unsignaled paths only
        };
        let Some(body) = decoded else {
            // Not a control message despite the channel predicate: count
            // and drop rather than crashing the rank.
            self.ctx.stat_incr("offload.host.bad_ctrl", 1);
            self.ctx.emit(&ProtoEvent::CtrlDropped {
                at_proxy: false,
                kind: CtrlKind::Unknown,
                msg_id: 0,
            });
            return;
        };
        // Reliability plumbing first: unwrap envelopes (ack + dedup),
        // retire acks, service retransmission timers. None of these count
        // as host wakeups — they exist only under a fault plan.
        let body = match body {
            CtrlMsg::Seq {
                seq,
                from,
                from_ep,
                epoch,
                inner,
            } => {
                let fab = self.cluster.fabric();
                let accepted = self
                    .st
                    .borrow_mut()
                    .rel
                    .on_seq(&self.ctx, fab, seq, from, from_ep, epoch, *inner);
                match accepted {
                    Some(inner) => inner,
                    None => return, // duplicate
                }
            }
            CtrlMsg::Ack { seq } => {
                self.st.borrow_mut().rel.on_ack(seq);
                return;
            }
            CtrlMsg::RetxTick { seq } => {
                let fab = self.cluster.fabric();
                let outcome = self.st.borrow_mut().rel.on_tick(&self.ctx, fab, seq);
                match outcome {
                    TickOutcome::Abandoned {
                        msg_id,
                        attempts,
                        origin,
                    } => self.fail_origin(origin, msg_id, attempts),
                    // Ctrl retry budget exhausted for this peer: shed the
                    // message and surface a typed failure instead of
                    // hammering a degraded link (DESIGN.md §19).
                    TickOutcome::BudgetShed {
                        msg_id,
                        attempts,
                        origin,
                    } => {
                        self.ctx.stat_incr("offload.health.retry_budget_sheds", 1);
                        match origin {
                            ReqOrigin::Free => {}
                            ReqOrigin::Basic(req) => {
                                // The event pairs 1:1 with the `ReqFailed`
                                // that `fail_basic` emits (group sheds
                                // surface through `GroupFailed` instead).
                                // Shedding the retransmit stream of an
                                // already-settled request — the message
                                // landed but its ack kept getting dropped
                                // — is harmless and surfaces nothing.
                                let live = {
                                    let st = self.st.borrow();
                                    st.reqs
                                        .get(req)
                                        .is_some_and(|s| !s.done && s.error.is_none())
                                };
                                if live {
                                    self.ctx.emit(&ProtoEvent::RetryBudgetExhausted {
                                        rank: self.rank,
                                        msg_id,
                                        path: HealthPath::Ctrl,
                                    });
                                    self.fail_basic(
                                        req,
                                        OffloadError::RetryBudgetExhausted { msg_id, attempts },
                                        attempts,
                                    );
                                }
                            }
                            ReqOrigin::Group(req_id) => {
                                let gen = self.st.borrow().groups[req_id].gen;
                                self.fail_group(req_id, gen);
                            }
                        }
                    }
                    _ => {}
                }
                return;
            }
            CtrlMsg::BackpressureTick => {
                self.flush_deferred(self.cfg.queue_cap.max(1));
                return;
            }
            CtrlMsg::DeadlineTick { req } => {
                self.on_deadline(req);
                return;
            }
            other => other,
        };
        let mut finished_msg = None;
        match body {
            CtrlMsg::FinSend { req, credit, .. } | CtrlMsg::FinRecv { req, credit, .. } => {
                let mut st = self.st.borrow_mut();
                match st.reqs.get_mut(req) {
                    // Exactly-once completion: a FIN for an already-done
                    // request (replayed work after a proxy restart) must
                    // not re-complete it or re-emit `HostReqDone`.
                    Some(slot) if slot.done => {
                        drop(st);
                        self.ctx.stat_incr("offload.reliable.dup_fins", 1);
                        return;
                    }
                    // A cancelled (or otherwise failed) request never
                    // completes: a late FIN is dropped, keeping the
                    // slot's typed error authoritative.
                    Some(slot) if slot.error.is_some() => {
                        drop(st);
                        self.ctx.stat_incr("offload.host.late_fins", 1);
                        return;
                    }
                    Some(slot) => {
                        slot.done = true;
                        slot.replay = None;
                        slot.post = None;
                        finished_msg = Some(slot.msg_id);
                        st.live_basic = st.live_basic.saturating_sub(1);
                    }
                    None => {
                        drop(st);
                        self.ctx.stat_incr("offload.host.bad_ctrl", 1);
                        return;
                    }
                }
                drop(st);
                self.release_window(req);
                self.unpin_gvmi(req);
                if let Some(msg_id) = finished_msg {
                    self.note_settled(msg_id);
                }
                // The FIN's credit piggyback reports free proxy slots;
                // admit at least one deferred post (our own completion
                // freed a window slot even if the proxy reported none).
                self.flush_deferred((credit as usize).max(1));
            }
            CtrlMsg::RecvMeta {
                dst_rank,
                dst_req_id,
                entries,
            } => {
                let mut st = self.st.borrow_mut();
                st.metas_from
                    .entry(dst_rank)
                    .or_insert_with(|| MetaQueue {
                        queue: VecDeque::new(),
                    })
                    .queue
                    .push_back((dst_req_id, entries));
            }
            CtrlMsg::GroupFin { req_id, gen } => {
                let ids: Vec<u64> = {
                    let mut st = self.st.borrow_mut();
                    let g = &mut st.groups[req_id];
                    let first_fin = g.fin_gen == 0 && gen > 0;
                    // `max` keeps duplicate group FINs idempotent.
                    g.fin_gen = g.fin_gen.max(gen);
                    // Group wire entries share the msg-id namespace with
                    // basic requests but never enter the proxies' FIN
                    // journals; fold them into the ack horizon on the
                    // first completion so it can advance past them.
                    if first_fin && self.cfg.journal_cap > 0 {
                        g.wire
                            .iter()
                            .flatten()
                            .filter_map(|e| match e {
                                WireEntry::Send { msg_id, .. } => Some(*msg_id),
                                _ => None,
                            })
                            .collect()
                    } else {
                        Vec::new()
                    }
                };
                for id in ids {
                    self.note_settled(id);
                }
            }
            CtrlMsg::ProxyRestarted { proxy, epoch } => {
                self.on_proxy_restarted(proxy, epoch);
            }
            // Backpressure: the proxy refused admission. Return the
            // credit, park the request on the deferred queue, and retry
            // after an exponential backoff.
            CtrlMsg::QueueFull { msg_id } => {
                let req = {
                    let st = self.st.borrow();
                    st.reqs
                        .iter()
                        .position(|s| s.msg_id == msg_id && !s.done && s.error.is_none())
                };
                if let Some(req) = req {
                    self.release_window(req);
                    let attempt = {
                        let mut st = self.st.borrow_mut();
                        st.reqs[req].target = None;
                        st.reqs[req].attempts += 1;
                        st.deferred.push(self.tenant, req);
                        st.reqs[req].attempts
                    };
                    self.ctx.stat_incr("offload.credit.nacks", 1);
                    self.ctx.deliver_self(
                        backoff_delay_from(self.cfg.retx_base, self.cfg.retx_cap, attempt),
                        Box::new(NetMsg::Notify(Box::new(CtrlMsg::BackpressureTick))),
                    );
                }
            }
            // Typed data-plane failure: the proxy exhausted the bounded
            // payload-retransmission budget for this transfer.
            CtrlMsg::DataError {
                req,
                msg_id,
                attempts,
                shed,
            } => {
                // A shed transfer was dropped by the proxy's per-peer data
                // retry budget (the proxy already emitted
                // `RetryBudgetExhausted`); an exhausted one burned the full
                // `data_retx_max` allowance.
                let err = if shed {
                    OffloadError::RetryBudgetExhausted { msg_id, attempts }
                } else {
                    OffloadError::DataIntegrity { msg_id, attempts }
                };
                self.fail_basic(req, err, attempts);
            }
            CtrlMsg::GroupDataError { req_id, gen, .. } => {
                self.fail_group(req_id, gen);
            }
            other => panic!(
                "unexpected control message on host {}: {other:?}",
                self.rank
            ),
        }
        // The host CPU just spent cycles on the offload plane. If work is
        // still outstanding after applying the message, this was a genuine
        // mid-operation intervention (the paper's overlap killer); a
        // terminal completion notice is a plain wakeup.
        let outstanding = {
            let st = self.st.borrow();
            st.reqs.iter().any(|r| !r.done) || st.groups.iter().any(|g| g.fin_gen < g.gen)
        };
        self.ctx.stat_incr("offload.host.wakeups", 1);
        if outstanding {
            self.ctx.stat_incr("offload.host.interventions", 1);
        }
        self.ctx.emit(&ProtoEvent::HostWakeup {
            rank: self.rank,
            intervention: outstanding,
        });
        // FIN observed: close the transfer's causal timeline. Emitted
        // after the wakeup so observers see intervention classification
        // and completion at the same instant, in a fixed order.
        if let Some(msg_id) = finished_msg {
            self.ctx.emit(&ProtoEvent::HostReqDone {
                rank: self.rank,
                msg_id,
                more_outstanding: outstanding,
            });
        }
    }

    /// Surface a permanent ctrl-plane failure on whatever the abandoned
    /// message was working for.
    fn fail_origin(&self, origin: ReqOrigin, msg_id: u64, attempts: u32) {
        match origin {
            ReqOrigin::Free => {}
            ReqOrigin::Basic(req) => {
                self.fail_basic(
                    req,
                    OffloadError::CtrlUndeliverable { msg_id, attempts },
                    attempts,
                );
            }
            ReqOrigin::Group(req_id) => {
                let gen = self.st.borrow().groups[req_id].gen;
                self.fail_group(req_id, gen);
            }
        }
    }

    /// Fail a basic request slot with a typed error (idempotent).
    fn fail_basic(&self, req: usize, err: OffloadError, attempts: u32) {
        let msg_id = {
            let mut st = self.st.borrow_mut();
            let Some(slot) = st.reqs.get_mut(req) else {
                return;
            };
            if slot.done || slot.error.is_some() {
                return;
            }
            slot.error = Some(err);
            slot.replay = None;
            slot.post = None;
            let msg_id = slot.msg_id;
            st.live_basic = st.live_basic.saturating_sub(1);
            msg_id
        };
        self.release_window(req);
        self.unpin_gvmi(req);
        self.note_settled(msg_id);
        self.ctx.stat_incr("offload.reliable.req_failures", 1);
        self.ctx.emit(&ProtoEvent::ReqFailed {
            rank: self.rank,
            msg_id,
            attempts,
        });
        self.flush_deferred(1);
    }

    /// Fail the in-flight generation of a group request (idempotent;
    /// stale failures for an older generation are ignored).
    fn fail_group(&self, req_id: usize, gen: u64) {
        let gen = {
            let mut st = self.st.borrow_mut();
            let Some(g) = st.groups.get_mut(req_id) else {
                return;
            };
            if gen < g.gen || g.fin_gen >= g.gen || g.error.is_some() {
                return;
            }
            g.error = Some(OffloadError::GroupFailed { req_id, gen: g.gen });
            g.gen
        };
        self.ctx.stat_incr("offload.group.failures", 1);
        self.ctx.emit(&ProtoEvent::GroupFailed {
            host_rank: self.rank,
            req_id,
            gen,
        });
    }

    /// Cancel a request slot: typed error, proxy reap notice, credit and
    /// pin release (idempotent).
    fn cancel_req(&self, req: usize, err: OffloadError) {
        let settle = {
            let mut st = self.st.borrow_mut();
            let slot = &mut st.reqs[req];
            if slot.done || slot.error.is_some() {
                return;
            }
            slot.error = Some(err);
            slot.replay = None;
            slot.post = None;
            let settled = (slot.msg_id, slot.target);
            st.live_basic = st.live_basic.saturating_sub(1);
            settled
        };
        let (msg_id, target) = settle;
        self.release_window(req);
        self.unpin_gvmi(req);
        self.note_settled(msg_id);
        self.ctx.stat_incr("offload.cancel.requests", 1);
        self.ctx.emit(&ProtoEvent::ReqCancelled {
            rank: self.rank,
            msg_id,
        });
        // Tell the proxy to reap queued descriptors and suppress late
        // matches. A still-deferred request never reached the proxy.
        if let Some(to) = target {
            self.post_ctrl(
                to,
                self.cfg.ctrl_bytes,
                CtrlMsg::Cancel { msg_id },
                ReqOrigin::Free,
            );
            self.ctx.stat_incr("offload.ctrl.host_dpu", 1);
        }
        self.flush_deferred(1);
    }

    /// A deadline timer fired: cancel the request (or fail the group
    /// generation) if it still has not settled.
    fn on_deadline(&self, req: usize) {
        if req >= GROUP_DEADLINE_BASE {
            let req_id = req - GROUP_DEADLINE_BASE;
            let gen = {
                let st = self.st.borrow();
                let g = &st.groups[req_id];
                if g.fin_gen >= g.gen || g.error.is_some() {
                    return;
                }
                g.gen
            };
            self.ctx.stat_incr("offload.deadline.expired", 1);
            self.fail_group(req_id, gen);
            return;
        }
        let pending = {
            let st = self.st.borrow();
            st.reqs
                .get(req)
                .filter(|s| !s.done && s.error.is_none())
                .map(|s| s.msg_id)
        };
        if let Some(msg_id) = pending {
            self.ctx.stat_incr("offload.deadline.expired", 1);
            self.cancel_req(req, OffloadError::DeadlineExceeded { msg_id });
        }
    }

    /// Proxy-restart recovery (DESIGN.md §13): on the first notice of a
    /// higher epoch, invalidate everything the crashed proxy held on our
    /// behalf — the GVMI registration cache (its cross-registrations
    /// died) and the group metadata caches — then replay every in-flight
    /// basic request and group generation that targeted it.
    fn on_proxy_restarted(&self, proxy: EpId, epoch: u64) {
        {
            let mut st = self.st.borrow_mut();
            let known = st.proxy_epochs.entry(proxy.index()).or_insert(0);
            if epoch <= *known {
                return; // stale or duplicate notice
            }
            *known = epoch;
            // Recovery: the restart wiped the proxy's ctrl state, so any
            // deficit our retry budget accumulated against it is moot.
            // Start the fresh epoch with a full bucket.
            st.rel.reset_budget_for(proxy);
        }
        self.ctx.stat_incr("offload.reliable.restarts_seen", 1);
        if proxy == self.proxy_ep {
            let n_proxies = self.cluster.proxies_per_dpu();
            let mut st = self.st.borrow_mut();
            st.gvmi_cache = RankAddrCache::new(n_proxies);
            for g in &mut st.groups {
                g.proxy_cached = false;
            }
        }
        // Replay in-flight basic requests addressed to the restarted
        // proxy. The proxy's completion journal survives the crash, so a
        // request whose FIN raced the crash is answered directly instead
        // of re-executed.
        let replays: Vec<(usize, EpId, CtrlMsg)> = {
            let st = self.st.borrow();
            st.reqs
                .iter()
                .enumerate()
                .filter(|(_, s)| !s.done && s.error.is_none())
                .filter_map(|(i, s)| s.replay.as_ref().map(|(to, m)| (i, *to, m.clone())))
                .filter(|(_, to, _)| *to == proxy)
                .collect()
        };
        for (req, to, msg) in replays {
            let msg_id = self.st.borrow().reqs[req].msg_id;
            self.ctx.stat_incr("offload.reliable.replays", 1);
            self.ctx.emit(&ProtoEvent::ReqReplayed {
                rank: self.rank,
                msg_id,
            });
            self.post_ctrl(to, self.cfg.ctrl_bytes, msg, ReqOrigin::Basic(req));
        }
        // Re-ship in-flight group generations: the proxy's instances and
        // metadata cache died with it, so send the full packet again
        // (which restarts the generation) and mark the cache warm.
        if proxy == self.proxy_ep {
            let inflight: Vec<(usize, u64)> = {
                let st = self.st.borrow();
                st.groups
                    .iter()
                    .enumerate()
                    .filter(|(_, g)| g.wire.is_some() && g.gen > g.fin_gen)
                    .map(|(i, g)| (i, g.gen))
                    .collect()
            };
            for (req_id, gen) in inflight {
                self.ctx.stat_incr("offload.reliable.replays", 1);
                self.ctx.emit(&ProtoEvent::ReqReplayed {
                    rank: self.rank,
                    msg_id: 0,
                });
                self.send_group_packet(GroupRequest(req_id), gen);
                self.st.borrow_mut().groups[req_id].proxy_cached = true;
            }
        }
    }
}
