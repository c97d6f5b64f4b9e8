//! UDP: connectionless datagrams over IP, with real fragmentation and
//! reassembly for datagrams larger than the MTU.

use std::rc::Rc;

use bytes::Bytes;
use simnet::{MacAddr, NetError, OpResult, ProcessCtx, SimAccess, SimQueue, SimResult};

use crate::stack::StackCore;
use crate::wire::{udp_fragments, IpPacket, IpProto, SockAddr, UdpDatagram};

/// Datagrams queued per UDP port before the kernel starts dropping (models
/// the receive socket buffer).
pub(crate) const UDP_QUEUE_LIMIT: usize = 128;

/// A bound UDP port's kernel state.
pub(crate) struct UdpPort {
    pub(crate) port: u16,
    pub(crate) queue: SimQueue<(SockAddr, Bytes)>,
}

/// In-progress reassembly of a fragmented datagram.
pub(crate) struct UdpReasm {
    pub(crate) received: u32,
    pub(crate) count: u32,
    pub(crate) dgram: UdpDatagram,
}

/// Bind a UDP port.
pub(crate) fn bind(stack: &StackCore, ctx: &ProcessCtx, port: u16) -> OpResult<Rc<UdpPort>> {
    ctx.delay(stack.host().cost().syscall)?;
    let mut st = stack.state.borrow_mut();
    if st.udp_ports.contains_key(&port) {
        return Ok(Err(NetError::AddrInUse));
    }
    let p = Rc::new(UdpPort {
        port,
        queue: SimQueue::new(),
    });
    st.udp_ports.insert(port, Rc::clone(&p));
    Ok(Ok(p))
}

/// Send a datagram; fragments if it exceeds the MTU.
pub(crate) fn send_to(
    stack: &StackCore,
    ctx: &ProcessCtx,
    src_port: u16,
    dst: SockAddr,
    data: &[u8],
) -> SimResult<()> {
    let cost = stack.host().cost();
    ctx.delay(cost.syscall + cost.memcpy(data.len()))?;
    let id = {
        let mut st = stack.state.borrow_mut();
        st.next_udp_id += 1;
        st.next_udp_id
    };
    let frags = udp_fragments(data.len());
    let count = frags.len() as u32;
    let dgram = UdpDatagram {
        src_port,
        dst_port: dst.port,
        data: Bytes::copy_from_slice(data),
    };
    for (idx, frag_len) in frags.into_iter().enumerate() {
        let pkt = IpPacket {
            src: stack.host().id(),
            dst: dst.host,
            proto: IpProto::UdpFrag {
                id,
                idx: idx as u32,
                count,
                dgram: dgram.clone(),
                frag_len,
            },
        };
        stack.emit_on_kernel(ctx, stack.cfg().tcp_tx_cost, pkt);
    }
    Ok(())
}

/// Blocking receive.
pub(crate) fn recv_from(
    stack: &StackCore,
    ctx: &ProcessCtx,
    p: &Rc<UdpPort>,
) -> SimResult<(SockAddr, Bytes)> {
    let cost = stack.host().cost();
    ctx.delay(cost.syscall)?;
    let (from, data) = p.queue.pop(ctx)?;
    ctx.delay(cost.process_wakeup + cost.context_switch + cost.memcpy(data.len()))?;
    Ok((from, data))
}

/// Kernel-side fragment arrival (runs on the kernel CPU).
#[allow(clippy::too_many_arguments)]
pub(crate) fn on_frag(
    stack: &Rc<StackCore>,
    sim: &dyn SimAccess,
    src: MacAddr,
    id: u64,
    _idx: u32,
    count: u32,
    dgram: UdpDatagram,
    _frag_len: usize,
) {
    let complete = if count == 1 {
        Some(dgram)
    } else {
        let mut st = stack.state.borrow_mut();
        let entry = st.udp_reasm.entry((src, id)).or_insert_with(|| UdpReasm {
            received: 0,
            count,
            dgram,
        });
        entry.received += 1;
        if entry.received == entry.count {
            let done = st.udp_reasm.remove(&(src, id)).expect("entry exists");
            Some(done.dgram)
        } else {
            None
        }
    };
    let Some(dgram) = complete else { return };
    let port = stack.state.borrow().udp_ports.get(&dgram.dst_port).cloned();
    let Some(port) = port else { return }; // no socket: silently dropped
    if port.queue.len() >= UDP_QUEUE_LIMIT {
        stack.state.borrow_mut().udp_dropped += 1;
        return;
    }
    port.queue
        .push(sim, (SockAddr::new(src, dgram.src_port), dgram.data));
}

/// Unbind (socket close).
pub(crate) fn unbind(stack: &StackCore, port: u16) {
    stack.state.borrow_mut().udp_ports.remove(&port);
}
