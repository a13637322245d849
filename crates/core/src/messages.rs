//! Wire messages of the offload framework.
//!
//! These ride as bodies of [`rdma::NetMsg::Packet`] (control path) and
//! [`rdma::NetMsg::Notify`] (attached to RDMA writes). CQE work-request
//! ids carry the engine tag in the top byte so several engines can share
//! one process mailbox.

use rdma::{EpId, MrKey, VAddr};
use simnet::Pid;

use crate::events::CtrlKind;

/// Work-request namespace of host-posted offload operations (staging
/// writes).
pub(crate) const WRID_OFF_HOST: u64 = 0x0200_0000_0000_0000;
/// Work-request namespace of proxy-posted offload operations.
pub(crate) const WRID_OFF_PROXY: u64 = 0x0300_0000_0000_0000;
/// Mask selecting the engine tag of a wrid.
pub(crate) const WRID_MASK: u64 = 0xFF00_0000_0000_0000;

/// Identifier of one group request instance: the owning host rank and the
/// host-local request id.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub(crate) struct GroupKey {
    pub host_rank: usize,
    pub req_id: usize,
}

/// A group-packet entry as shipped to the proxy (paper Fig. 9).
#[derive(Clone, Debug)]
pub(crate) enum WireEntry {
    /// An offloaded send: everything the proxy needs to move
    /// `[addr, addr+len)` of the owning host into the matched remote
    /// receive buffer.
    Send {
        addr: VAddr,
        len: u64,
        /// Host-side GVMI mkey (input to cross-registration; GVMI path).
        mkey: MrKey,
        /// IB rkey of the source buffer (staging path: the proxy
        /// RDMA-READs the payload into its staging buffer through this).
        src_rkey: MrKey,
        dst_rank: usize,
        tag: u64,
        /// Matched destination buffer (from the metadata gather).
        dst_addr: VAddr,
        dst_rkey: MrKey,
        /// Destination host's request id (labels barrier counters and
        /// arrival notifications at the destination proxy).
        dst_req_id: usize,
        /// Stable per-transfer id allocated from the owning host's
        /// message counter when the wire image is built; labels the data
        /// writes this entry produces in the event stream.
        msg_id: u64,
        /// CRC32 of the payload as of the latest `Group_Offload_call`
        /// (re-hashed every call). Present only when the run's fault
        /// plan arms payload faults (end-to-end integrity).
        crc: Option<u32>,
    },
    /// An offloaded receive: passive — tracked for arrival.
    Recv { src_rank: usize, tag: u64 },
    /// `Local_barrier_Goffload` marker.
    Barrier,
}

/// Control messages (packet bodies and notify bodies).
///
/// Some fields model wire contents the simulated receiver re-derives from
/// the roster (e.g. pids); they are kept so the message layouts match the
/// paper's protocol diagrams.
#[derive(Clone, Debug)]
#[allow(dead_code)]
pub(crate) enum CtrlMsg {
    // ---- Basic primitives (paper Figs. 7-8) ----
    /// Ready-to-send: source host → source-side proxy.
    Rts {
        src_rank: usize,
        dst_rank: usize,
        tag: u64,
        addr: VAddr,
        len: u64,
        /// GVMI mkey (GVMI path).
        mkey: Option<MrKey>,
        /// IB rkey of the source buffer (staging path: the proxy pulls the
        /// payload with an RDMA READ).
        src_rkey: Option<MrKey>,
        src_req: usize,
        src_pid: Pid,
        /// Stable per-transfer id of the send side.
        msg_id: u64,
        /// CRC32 of the payload at post time (end-to-end integrity;
        /// `None` unless the run arms payload faults).
        crc: Option<u32>,
        /// Highest seq this host has contiguously completed (FIN-journal
        /// truncation horizon; 0 unless the journal cap is armed).
        ack_horizon: u64,
        /// Tenant of the posting rank (0 in single-tenant runs). The
        /// proxy partitions its descriptor pool, staging pool and
        /// journal by this id.
        tenant: usize,
    },
    /// Ready-to-receive: destination host → source-side proxy.
    Rtr {
        src_rank: usize,
        dst_rank: usize,
        tag: u64,
        addr: VAddr,
        len: u64,
        rkey: MrKey,
        dst_req: usize,
        dst_pid: Pid,
        /// Stable per-transfer id of the receive side.
        msg_id: u64,
        /// Completion horizon of the receiving host (see `Rts`).
        ack_horizon: u64,
        /// Tenant of the posting rank (see `Rts`).
        tenant: usize,
    },
    /// Completion to the source host.
    FinSend {
        req: usize,
        msg_id: u64,
        /// Free descriptor-queue slots at the sending proxy when the FIN
        /// left (credit piggyback; 0 unless the queue cap is armed).
        credit: u32,
    },
    /// Completion to the destination host.
    FinRecv {
        req: usize,
        msg_id: u64,
        /// Credit piggyback (see `FinSend`).
        credit: u32,
    },
    /// Admission refused: the proxy's descriptor queues are at their
    /// configured cap. The host re-posts the original ctrl message after
    /// a backoff (backpressure, not failure).
    QueueFull { msg_id: u64 },
    /// Cancel an in-flight basic request (deadline expiry or an explicit
    /// application cancel). The proxy reaps matching queued descriptors
    /// and suppresses late matches for this transfer id.
    Cancel { msg_id: u64 },
    /// Typed data-plane failure: the proxy exhausted the bounded payload
    /// retransmission budget for this transfer.
    DataError {
        req: usize,
        msg_id: u64,
        attempts: u32,
        /// True when the transfer was shed by the per-peer data retry
        /// budget rather than exhausting `data_retx_max`; the host maps
        /// this onto [`OffloadError::RetryBudgetExhausted`].
        ///
        /// [`OffloadError::RetryBudgetExhausted`]: crate::OffloadError::RetryBudgetExhausted
        shed: bool,
    },
    /// Typed data-plane failure for a group entry: the owning host fails
    /// the whole generation.
    GroupDataError {
        req_id: usize,
        gen: u64,
        attempts: u32,
    },

    // ---- Group primitives (paper Figs. 9-10, Algorithm 1) ----
    /// Receive-side metadata sent host→host during the gather phase:
    /// for each of my receives from `src_rank`, the buffer it may write.
    RecvMeta {
        dst_rank: usize,
        dst_req_id: usize,
        /// `(tag, addr, rkey)` in recv-entry order.
        entries: Vec<(u64, VAddr, MrKey)>,
    },
    /// Full group offload packet: host → its mapped proxy (first call, or
    /// every call when the group cache is disabled).
    GroupPacket {
        key: GroupKey,
        gen: u64,
        entries: Vec<WireEntry>,
        host_pid: Pid,
    },
    /// Cached execution: host → proxy, metadata already resident.
    GroupExec {
        key: GroupKey,
        gen: u64,
        /// This generation's payload CRC32s, one per `Send` entry in wire
        /// order, taken at the call (payload-fault runs only).
        crcs: Option<Vec<u32>>,
    },
    /// Completion: proxy → host.
    GroupFin { req_id: usize, gen: u64 },
    /// Barrier counter written by the source-side proxy into the
    /// destination-side proxy (paper Algorithm 1, `writeRemoteBarrierCntr`).
    BarrierCntr {
        src_rank: usize,
        dst_key: GroupKey,
        gen: u64,
        value: u64,
    },
    /// Arrival marker delivered to the destination-side proxy together
    /// with the data write (the per-write completion counter that lets a
    /// worker "know the receive completion progress of its locally mapped
    /// host process").
    GroupArrival {
        src_rank: usize,
        tag: u64,
        dst_key: GroupKey,
        gen: u64,
        /// The wire entry's msg_id: arrival accounting is keyed on it so
        /// a replayed data write (proxy-restart recovery) is idempotent.
        msg_id: u64,
    },

    // ---- One-sided (SHMEM-style) extensions ----
    /// Offloaded one-sided put: no receiver involvement — the destination
    /// buffer and rkey are known up-front (symmetric heap). The proxy
    /// moves the data exactly like a matched send/recv pair.
    Put {
        src_rank: usize,
        addr: VAddr,
        len: u64,
        /// GVMI mkey (GVMI path).
        mkey: Option<MrKey>,
        /// Source rkey (staging path: worker read).
        src_rkey: Option<MrKey>,
        dst_rank: usize,
        dst_addr: VAddr,
        dst_rkey: MrKey,
        src_req: usize,
        src_pid: Pid,
        /// Stable per-transfer id of the put.
        msg_id: u64,
    },
    /// Offloaded one-sided get (GVMI only): the proxy cross-registers the
    /// origin's destination buffer (mkey → mkey2) and RDMA-READs the
    /// remote symmetric memory into it.
    Get {
        src_rank: usize,
        local_addr: VAddr,
        len: u64,
        /// GVMI mkey over the origin's destination buffer.
        local_mkey: MrKey,
        remote_rank: usize,
        remote_addr: VAddr,
        remote_rkey: MrKey,
        src_req: usize,
        src_pid: Pid,
        /// Stable per-transfer id of the get.
        msg_id: u64,
    },
    /// Symmetric-heap info exchanged rank-to-rank at `Shmem` startup.
    ShmemHello {
        rank: usize,
        heap_base: VAddr,
        heap_rkey: MrKey,
    },

    // ---- Lifecycle ----
    /// A mapped host rank is done with the framework.
    Shutdown { rank: usize },

    // ---- Reliability layer (DESIGN.md §13) ----
    /// Sequence-numbered envelope around any ctrl message. Present only
    /// when the run's [`crate::FaultPlan`] arms the reliability layer.
    Seq {
        /// Per-sender sequence number (unique per (from, epoch)).
        seq: u64,
        /// Sending process (dedup key at the receiver).
        from: Pid,
        /// Sending endpoint (where the ack goes).
        from_ep: EpId,
        /// Sender's restart epoch; a receiver treats (from, epoch, seq)
        /// as the dedup key so a restarted sender starts fresh.
        epoch: u64,
        /// The enveloped ctrl message.
        inner: Box<CtrlMsg>,
    },
    /// Acknowledgement of one [`CtrlMsg::Seq`] envelope.
    Ack { seq: u64 },
    /// Self-delivered retransmission timer (virtual time): when it fires
    /// and `seq` is still unacked, the sender retransmits with backoff.
    RetxTick { seq: u64 },
    /// Self-delivered data-path retransmission timer (proxy): re-post the
    /// payload write tracked under `token` (CRC verification failed).
    DataRetxTick { token: u64 },
    /// Self-delivered deadline timer (host): if request `req` is still in
    /// flight when it fires, the request fails with a typed timeout and a
    /// [`CtrlMsg::Cancel`] is sent to the proxy.
    DeadlineTick { req: usize },
    /// Self-delivered backpressure retry timer (host): attempt to flush
    /// credit-deferred posts.
    BackpressureTick,
    /// Restart notice: a proxy that crashed and came back announces its
    /// new epoch so hosts invalidate cached registrations and group
    /// metadata and replay in-flight requests.
    ProxyRestarted {
        /// The restarted proxy's endpoint.
        proxy: EpId,
        /// Its post-restart epoch (monotonically increasing).
        epoch: u64,
    },
}

impl CtrlMsg {
    /// Message kind, for event attribution ([`CtrlKind`]).
    pub(crate) fn kind(&self) -> CtrlKind {
        match self {
            CtrlMsg::Rts { .. } => CtrlKind::Rts,
            CtrlMsg::Rtr { .. } => CtrlKind::Rtr,
            CtrlMsg::FinSend { .. } => CtrlKind::FinSend,
            CtrlMsg::FinRecv { .. } => CtrlKind::FinRecv,
            CtrlMsg::RecvMeta { .. } => CtrlKind::RecvMeta,
            CtrlMsg::GroupPacket { .. } => CtrlKind::GroupPacket,
            CtrlMsg::GroupExec { .. } => CtrlKind::GroupExec,
            CtrlMsg::GroupFin { .. } => CtrlKind::GroupFin,
            CtrlMsg::BarrierCntr { .. } => CtrlKind::BarrierCntr,
            CtrlMsg::GroupArrival { .. } => CtrlKind::GroupArrival,
            CtrlMsg::Put { .. } => CtrlKind::Put,
            CtrlMsg::Get { .. } => CtrlKind::Get,
            CtrlMsg::ShmemHello { .. } => CtrlKind::ShmemHello,
            CtrlMsg::Shutdown { .. } => CtrlKind::Shutdown,
            CtrlMsg::Seq { .. } => CtrlKind::Seq,
            CtrlMsg::Ack { .. } => CtrlKind::Ack,
            CtrlMsg::RetxTick { .. }
            | CtrlMsg::DataRetxTick { .. }
            | CtrlMsg::DeadlineTick { .. }
            | CtrlMsg::BackpressureTick => CtrlKind::RetxTick,
            CtrlMsg::QueueFull { .. } => CtrlKind::QueueFull,
            CtrlMsg::Cancel { .. } => CtrlKind::Cancel,
            CtrlMsg::DataError { .. } | CtrlMsg::GroupDataError { .. } => CtrlKind::DataError,
            CtrlMsg::ProxyRestarted { .. } => CtrlKind::ProxyRestarted,
        }
    }

    /// The transfer id this message is about, where one exists (0
    /// otherwise). Used to attribute drops/retransmits to a transfer.
    pub(crate) fn msg_id_hint(&self) -> u64 {
        match self {
            CtrlMsg::Rts { msg_id, .. }
            | CtrlMsg::Rtr { msg_id, .. }
            | CtrlMsg::FinSend { msg_id, .. }
            | CtrlMsg::FinRecv { msg_id, .. }
            | CtrlMsg::Put { msg_id, .. }
            | CtrlMsg::Get { msg_id, .. }
            | CtrlMsg::GroupArrival { msg_id, .. }
            | CtrlMsg::QueueFull { msg_id }
            | CtrlMsg::Cancel { msg_id }
            | CtrlMsg::DataError { msg_id, .. } => *msg_id,
            _ => 0,
        }
    }
}
