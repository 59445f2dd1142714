package sim

import (
	"cmp"
	"math/bits"
	"slices"

	"updown/internal/arch"
)

// MaxOperands is the operand capacity of one message. The UpDown network
// moves fixed 64-byte messages, which carry up to eight 64-bit operands
// (paper Section 3).
const MaxOperands = 8

// Message is one network message: an event destined for a lane, a DRAM
// request destined for a memory controller, or a control message for an
// auxiliary actor.
//
// Messages are totally ordered by (Deliver, Src, Seq); actors process
// their inbound messages in that order, which makes every simulation run
// bit-identical for a given program, independent of host parallelism.
type Message struct {
	// Deliver is the cycle at which the message becomes available at the
	// destination. The engine may postpone execution further if the
	// destination actor is busy.
	Deliver arch.Cycles
	// Src is the sending actor and Seq its per-sender sequence number;
	// together with Deliver they form the deterministic ordering key.
	Src arch.NetworkID
	Seq uint64
	// Dst is the destination actor.
	Dst arch.NetworkID
	// Kind selects the protocol (arch.KindEvent, arch.KindDRAMRead, ...).
	Kind uint8
	// NOps is the number of valid operands in Ops.
	NOps uint8
	// Event is the event word: for KindEvent it selects the handler and
	// thread at the destination; for DRAM requests it is unused.
	Event uint64
	// Cont is the continuation word travelling with the message
	// (udweave.IGNRCONT when absent).
	Cont uint64
	// Ops are the operand words.
	Ops [MaxOperands]uint64
	// retry marks a message re-scheduled after finding its destination
	// busy (engine-internal; see the wait-queue invariant in engine.go).
	retry bool
}

// before reports whether m precedes o in the deterministic total order.
func (m *Message) before(o *Message) bool {
	if m.Deliver != o.Deliver {
		return m.Deliver < o.Deliver
	}
	if m.Src != o.Src {
		return m.Src < o.Src
	}
	return m.Seq < o.Seq
}

// The calendar ring spans ringSpan one-cycle buckets. A send lands one
// network hop plus injection queueing and any DRAM service ahead of the
// sending event — every push on the fig9 PageRank input is less than 8192
// cycles ahead of the current pop — so the ring holds nearly all traffic
// for 64 KiB of list heads per shard, and the far heap stays nearly idle.
const (
	ringSpan  = 1 << 14
	ringMask  = ringSpan - 1
	ringWords = ringSpan / 64
)

// heapEnt is one far-heap node: the delivery cycle of a message queued at
// or beyond the end of the ring window plus its arena index. The far heap
// orders by cycle alone; (Src, Seq) ties are settled once the message's
// bucket becomes the active one.
type heapEnt struct {
	d arch.Cycles
	i int32
}

// actEnt is one entry of the active bucket: the (Src, Seq) rest of the
// ordering key, copied out of the arena when the bucket is loaded, plus
// the arena index. Pops, beats and same-cycle inserts compare these, so
// the 120-byte Message is read once per entry, at load time.
type actEnt struct {
	src int32
	i   int32
	seq uint64
}

// msgHeap is the per-shard event queue, ordered by (Deliver, Src, Seq).
// Messages live in an arena; the queue moves 4-byte arena indices, never
// the 120-byte Message — the hottest code in the simulator.
//
// It is a calendar queue. A power-of-two ring of one-cycle buckets covers
// the window [base, base+ringSpan), where base is the minimum queued
// cycle. Each bucket is a singly-linked list threaded through next, which
// runs parallel to the arena; heads holds the list heads, occ one
// occupancy bit per bucket and sum one bit per non-zero occ word, so the
// next non-empty bucket is a few trailing-zeros scans however sparse the
// ring. Entries at or beyond the window end wait in a small binary heap
// on cycle (far) and enter the ring as base advances.
//
// The bucket for cycle base is the active bucket: loaded once into act
// and sorted by (Src, Seq), so a pop advances ap. Nearly all pops share
// the previous pop's cycle, which makes a pop O(1) and a push an O(1)
// list link. A push at base is a binary-search insert into act[ap:]; a
// push below base (hosts post between runs, and cross-shard collects can
// land below a shard's next event) slides the window back, moving only
// the buckets that fall off its far end into the far heap.
//
// States: with ap < len(act), act[ap] is the minimum. With the active
// bucket drained and loaded set, base is a lower bound on the queued
// cycles and its ring slot is empty; topDeliver then seeks the next
// occupied cycle, leaving loaded clear and that bucket in the ring until
// a pop, top or tied beats needs it sorted.
type msgHeap struct {
	arena []Message
	free  []int32
	next  []int32

	n      int
	base   arch.Cycles
	loaded bool
	act    []actEnt
	ap     int
	heads  []int32
	occ    []uint64
	sum    []uint64
	far    []heapEnt
}

func (h *msgHeap) len() int { return h.n }

// alloc copies *m into a free arena slot and returns the slot's index.
// Taking a pointer lets a send copy its message once, from the sender's
// stack straight into the arena.
func (h *msgHeap) alloc(m *Message) int32 {
	if n := len(h.free); n > 0 {
		i := h.free[n-1]
		h.free = h.free[:n-1]
		h.arena[i] = *m
		return i
	}
	h.arena = append(h.arena, *m)
	h.next = append(h.next, -1)
	return int32(len(h.arena) - 1)
}

// push queues a copy of *m.
func (h *msgHeap) push(m *Message) { h.pushIdx(h.alloc(m)) }

// pushIdx queues an already-allocated arena slot, reading the ordering key
// from the arena. The engine uses it to move parked messages between the
// per-actor wait queues and the queue without copying the 120-byte
// Message.
func (h *msgHeap) pushIdx(i int32) {
	m := &h.arena[i]
	d := m.Deliver
	e := actEnt{src: int32(m.Src), i: i, seq: m.Seq}
	h.n++
	if h.n > 1 {
		switch {
		case d == h.base && h.loaded:
			h.insertActive(e)
			return
		case d >= h.base:
			if d-h.base < ringSpan {
				h.link(i, d)
			} else {
				h.farPush(heapEnt{d: d, i: i})
			}
			return
		}
		h.slideBack(d)
	}
	// The queue was empty or d lies below base: d opens a new active
	// bucket.
	h.base = d
	h.act = append(h.act[:0], e)
	h.ap, h.loaded = 0, true
}

// insertActive places e in the unpopped part of the sorted active bucket.
func (h *msgHeap) insertActive(e actEnt) {
	lo, hi := h.ap, len(h.act)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.actBefore(h.act[mid], e) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.act = append(h.act, actEnt{})
	copy(h.act[lo+1:], h.act[lo:])
	h.act[lo] = e
}

// link prepends arena slot i to the ring bucket of cycle d, which must lie
// inside the window.
func (h *msgHeap) link(i int32, d arch.Cycles) {
	if h.heads == nil {
		h.heads = make([]int32, ringSpan)
		h.occ = make([]uint64, ringWords)
		h.sum = make([]uint64, ringWords/64)
	}
	s := int(d & ringMask)
	w, b := s>>6, uint64(1)<<(s&63)
	if h.occ[w]&b == 0 {
		h.occ[w] |= b
		h.sum[w>>6] |= 1 << (w & 63)
		h.next[i] = -1
	} else {
		h.next[i] = h.heads[s]
	}
	h.heads[s] = i
}

// nextOcc returns the offset k < n of the first occupied ring bucket
// among cycles from, from+1, ..., from+n-1, or n if there is none;
// n must not exceed ringSpan. It works on slot offsets, so a window near
// the top of the cycle range cannot overflow it.
func (h *msgHeap) nextOcc(from arch.Cycles, n int) int {
	if h.occ == nil {
		return n
	}
	s := int(from & ringMask)
	if w := h.occ[s>>6] >> (s & 63); w != 0 {
		return min(bits.TrailingZeros64(w), n)
	}
	// The rest of the ring, a whole occ word at a time: sum locates the
	// next non-zero word. k is the offset of word w0+dw's first slot.
	k, w0 := 64-s&63, s>>6+1
	for dw := 0; k+dw*64 < n; {
		w := (w0 + dw) & (ringWords - 1)
		if b := h.sum[w>>6] >> (w & 63); b != 0 {
			dw += bits.TrailingZeros64(b)
			return min(k+dw*64+bits.TrailingZeros64(h.occ[(w0+dw)&(ringWords-1)]), n)
		}
		dw += 64 - w&63
	}
	return n
}

// clearSlot marks ring slot s empty.
func (h *msgHeap) clearSlot(s int) {
	w := s >> 6
	if h.occ[w] &^= 1 << (s & 63); h.occ[w] == 0 {
		h.sum[w>>6] &^= 1 << (w & 63)
	}
}

// seek moves base from a drained active bucket to the next queued cycle
// and pulls the far entries the advanced window now covers into the
// ring. The new base bucket stays in the ring until load.
func (h *msgHeap) seek() {
	k := h.nextOcc(h.base+1, ringSpan-1)
	c := h.base + 1 + arch.Cycles(k)
	if k == ringSpan-1 {
		c = h.far[0].d
	}
	h.base = c
	h.loaded = false
	for len(h.far) > 0 && h.far[0].d-c < ringSpan {
		f := h.farPop()
		h.link(f.i, f.d)
	}
}

// load unlinks the ring bucket for cycle base into act, sorted.
func (h *msgHeap) load() {
	s := int(h.base & ringMask)
	act := h.act[:0]
	for i := h.heads[s]; i >= 0; i = h.next[i] {
		m := &h.arena[i]
		act = append(act, actEnt{src: int32(m.Src), i: i, seq: m.Seq})
	}
	h.clearSlot(s)
	h.sortActive(act)
	h.act, h.ap, h.loaded = act, 0, true
}

// actBefore reports whether a precedes b within one cycle's bucket.
func (h *msgHeap) actBefore(a, b actEnt) bool {
	return a.src < b.src || a.src == b.src && a.seq < b.seq
}

// sortActive sorts a loaded bucket by (Src, Seq): quicksort on the middle
// element down to insertion sort below 16 entries. Buckets arrive in push
// order reversed, which the middle pivot splits well; a pathological
// order that exhausts the depth budget falls back to the standard
// library's sort, so a crafted checkpoint cannot make a bucket quadratic.
func (h *msgHeap) sortActive(a []actEnt) {
	h.quickSort(a, 2*bits.Len(uint(len(a))))
}

func (h *msgHeap) quickSort(a []actEnt, depth int) {
	for len(a) > 16 {
		if depth == 0 {
			slices.SortFunc(a, func(x, y actEnt) int {
				if c := cmp.Compare(x.src, y.src); c != 0 {
					return c
				}
				return cmp.Compare(x.seq, y.seq)
			})
			return
		}
		depth--
		p := a[len(a)/2]
		i, j := 0, len(a)-1
		for i <= j {
			for h.actBefore(a[i], p) {
				i++
			}
			for h.actBefore(p, a[j]) {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// Recurse into the smaller side, loop on the larger.
		if j+1 < len(a)-i {
			h.quickSort(a[:j+1], depth)
			a = a[i:]
		} else {
			h.quickSort(a[i:], depth)
			a = a[:j+1]
		}
	}
	for i := 1; i < len(a); i++ {
		e := a[i]
		j := i
		for ; j > 0 && h.actBefore(e, a[j-1]); j-- {
			a[j] = a[j-1]
		}
		a[j] = e
	}
}

// ready makes act[ap] the minimum entry once the active bucket has
// drained. The queue must not be empty.
func (h *msgHeap) ready() {
	if h.loaded {
		h.seek()
	}
	h.load()
}

// slideBack moves the window down to start at cycle d < base: ring
// buckets at or beyond the new end, and the unpopped active bucket if it
// falls there too, move to the far heap; the rest of the active bucket
// returns to its ring slot. The caller moves base to d and installs the
// new active bucket.
func (h *msgHeap) slideBack(d arch.Cycles) {
	gap := h.base - d
	// Buckets at offsets [keep, ringSpan) from base fall off the end.
	keep := 0
	if gap < ringSpan {
		keep = ringSpan - int(gap)
	}
	for k := keep + h.nextOcc(h.base+arch.Cycles(keep), ringSpan-keep); k < ringSpan; k += 1 + h.nextOcc(h.base+arch.Cycles(k+1), ringSpan-k-1) {
		c := h.base + arch.Cycles(k)
		s := int(c & ringMask)
		for i := h.heads[s]; i >= 0; i = h.next[i] {
			h.farPush(heapEnt{d: c, i: i})
		}
		h.clearSlot(s)
	}
	if h.loaded {
		for _, a := range h.act[h.ap:] {
			if keep > 0 {
				h.link(a.i, h.base)
			} else {
				h.farPush(heapEnt{d: h.base, i: a.i})
			}
		}
	}
}

// popIdx removes the minimum entry from the queue but keeps its arena slot
// allocated; the caller owns the slot until it calls release or pushIdx.
// The slot contents stay valid across push/pushIdx (the arena only grows
// or is compacted, and compaction refuses to run while slots are parked).
func (h *msgHeap) popIdx() int32 {
	if h.ap == len(h.act) {
		h.ready()
	}
	i := h.act[h.ap].i
	h.ap++
	h.n--
	return i
}

// release returns an arena slot obtained from popIdx to the free list.
func (h *msgHeap) release(i int32) { h.free = append(h.free, i) }

// live returns the number of allocated arena slots: queued entries plus
// slots parked outside the queue via popIdx.
func (h *msgHeap) live() int { return len(h.arena) - len(h.free) }

// compact rebuilds the arena around the live entries when the free list
// dominates it, so multi-phase drivers (Run called repeatedly) do not
// hold peak-phase memory forever; queued entries, bucket links included,
// are renumbered in place. It only runs when every live slot is queued —
// parked wait-queue indices held by actors make slot movement unsafe —
// and when the arena is both mostly free (len(free) > 2*len()) and worth
// reclaiming (cap > 4096).
func (h *msgHeap) compact() {
	if h.live() != h.n {
		return
	}
	if cap(h.arena) <= 4096 || len(h.free) <= 2*h.n {
		return
	}
	arena := make([]Message, 0, h.n)
	next := make([]int32, h.n)
	move := func(i int32) int32 {
		arena = append(arena, h.arena[i])
		return int32(len(arena) - 1)
	}
	for k := h.ap; k < len(h.act); k++ {
		h.act[k].i = move(h.act[k].i)
	}
	for w, word := range h.occ {
		for ; word != 0; word &= word - 1 {
			s := w<<6 | bits.TrailingZeros64(word)
			prev := int32(-1)
			for i := h.heads[s]; i >= 0; i = h.next[i] {
				j := move(i)
				if prev < 0 {
					h.heads[s] = j
				} else {
					next[prev] = j
				}
				next[j] = -1
				prev = j
			}
		}
	}
	for k := range h.far {
		h.far[k].i = move(h.far[k].i)
	}
	h.arena, h.next, h.free = arena, next, nil
}

// each calls fn for every queued message, in no particular order.
func (h *msgHeap) each(fn func(*Message)) {
	for _, a := range h.act[h.ap:] {
		fn(&h.arena[a.i])
	}
	for w, word := range h.occ {
		for ; word != 0; word &= word - 1 {
			for i := h.heads[w<<6|bits.TrailingZeros64(word)]; i >= 0; i = h.next[i] {
				fn(&h.arena[i])
			}
		}
	}
	for _, f := range h.far {
		fn(&h.arena[f.i])
	}
}

// beats reports whether the key (d, src, seq) precedes the queue's current
// minimum in the deterministic total order (trivially true on an empty
// queue). The batched-dispatch fast path uses it to prove that a parked
// message released at its actor's free time would come straight back off
// the queue, so the round-trip can be skipped. Only a tie on the cycle
// needs the sorted active bucket.
func (h *msgHeap) beats(d arch.Cycles, src arch.NetworkID, seq uint64) bool {
	if h.n == 0 {
		return true
	}
	if h.ap == len(h.act) {
		if d != h.topDeliver() {
			return d < h.base
		}
		h.load()
	} else if d != h.base {
		return d < h.base
	}
	return h.actBefore(actEnt{src: int32(src), seq: seq}, h.act[h.ap])
}

// top returns the minimum message without removing it. It must not be
// called on an empty queue. The pointer is invalidated by push/pop.
func (h *msgHeap) top() *Message {
	if h.ap == len(h.act) {
		h.ready()
	}
	return &h.arena[h.act[h.ap].i]
}

// topDeliver returns the delivery time of the minimum message without
// touching the arena. It must not be called on an empty queue.
func (h *msgHeap) topDeliver() arch.Cycles {
	if h.ap == len(h.act) && h.loaded {
		h.seek()
	}
	return h.base
}

func (h *msgHeap) farPush(e heapEnt) {
	h.far = append(h.far, e)
	f := h.far
	for c := len(f) - 1; c > 0; {
		p := (c - 1) / 2
		if f[p].d <= f[c].d {
			break
		}
		f[p], f[c] = f[c], f[p]
		c = p
	}
}

func (h *msgHeap) farPop() heapEnt {
	f := h.far
	top := f[0]
	last := len(f) - 1
	f[0] = f[last]
	f = f[:last]
	for p := 0; ; {
		small, l, r := p, 2*p+1, 2*p+2
		if l < last && f[l].d < f[small].d {
			small = l
		}
		if r < last && f[r].d < f[small].d {
			small = r
		}
		if small == p {
			break
		}
		f[p], f[small] = f[small], f[p]
		p = small
	}
	h.far = f
	return top
}
