package sim

// Differential tests of the calendar event queue: random operation
// sequences drive msgHeap and a sorted-slice reference side by side, and
// every pop, top, topDeliver, beats, len and live answer must agree. The
// same driver backs the property test (seeded inputs) and FuzzMsgQueue
// (coverage-guided inputs; seed corpus in testdata/fuzz/FuzzMsgQueue).

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"testing"

	"updown/internal/arch"
	"updown/internal/prng"
)

// refKey is one queued message in the reference: its ordering key and
// the id carried in Message.Event.
type refKey struct {
	d   arch.Cycles
	src arch.NetworkID
	seq uint64
	id  uint64
}

func (a refKey) before(b refKey) bool {
	if a.d != b.d {
		return a.d < b.d
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// queueCover counts how often a run reached the cases the calendar queue
// handles specially.
type queueCover struct {
	far       int // pushes at or beyond the ring span past the minimum
	slideBack int // pushes below the queued minimum
	sameCycle int // pushes at the cycle still being drained
	seqTie    int // consecutive pops equal in (Deliver, Src)
	compacted int // compact calls that rebuilt the arena
}

func (c *queueCover) add(o queueCover) {
	c.far += o.far
	c.slideBack += o.slideBack
	c.sameCycle += o.sameCycle
	c.seqTie += o.seqTie
	c.compacted += o.compacted
}

// queueDriver replays a byte string as queue operations and checks each
// result against the reference.
type queueDriver struct {
	t      testing.TB
	h      msgHeap
	ref    []refKey // sorted ascending from rh
	rh     int
	parked []int32
	now    arch.Cycles // cycle of the last pop
	ids    uint64
	data   []byte
	rng    *prng.Stream
	cover  queueCover
}

func (q *queueDriver) byte() byte {
	if len(q.data) == 0 {
		return 0
	}
	b := q.data[0]
	q.data = q.data[1:]
	return b
}

func (q *queueDriver) refLen() int { return len(q.ref) - q.rh }

// minCycle is the cycle pushes are drawn around: the queued minimum, or
// the last popped cycle on an empty queue.
func (q *queueDriver) minCycle() arch.Cycles {
	if q.refLen() > 0 {
		return q.ref[q.rh].d
	}
	return q.now
}

// deliver draws a delivery cycle of the given class around the minimum,
// clamped to the non-negative cycle range.
func (q *queueDriver) deliver(class, v byte) arch.Cycles {
	var x arch.Cycles
	switch class % 7 {
	case 0: // the cycle being drained
		return q.now
	case 1: // near future
		x = arch.Cycles(v % 64)
	case 2: // the measured 1k-8k band
		x = 1024 + arch.Cycles(v)*28
	case 3: // straddling the ring end
		x = ringSpan - 2 + arch.Cycles(v%5)
	case 4: // well beyond the ring
		x = ringSpan*arch.Cycles(1+v%4) + arch.Cycles(v)
	case 5: // below the minimum: slides the window back
		x = -1 - arch.Cycles(v%64)
		if v >= 250 {
			x = -ringSpan - arch.Cycles(v)
		}
	default: // a host post far in the future
		x = 1 << 40
	}
	base := q.minCycle()
	switch {
	case x > 0 && base > math.MaxInt64-x:
		return math.MaxInt64
	case base+x < 0:
		return 0
	}
	return base + x
}

func (q *queueDriver) note(d arch.Cycles) {
	if q.refLen() == 0 {
		return
	}
	first := q.ref[q.rh].d
	switch {
	case d < first:
		q.cover.slideBack++
	case d-first >= ringSpan:
		q.cover.far++
	case d == q.now && d == first:
		q.cover.sameCycle++
	}
}

func (q *queueDriver) refInsert(k refKey) {
	live := q.ref[q.rh:]
	p := q.rh + sort.Search(len(live), func(j int) bool { return k.before(live[j]) })
	q.ref = append(q.ref, refKey{})
	copy(q.ref[p+1:], q.ref[p:])
	q.ref[p] = k
}

func (q *queueDriver) push(class, v, src byte) {
	if q.ids >= maxPushes {
		return
	}
	d := q.deliver(class, v)
	q.note(d)
	q.ids++
	// Bit-reversed ids make Seq unique but unrelated to push order.
	k := refKey{d: d, src: arch.NetworkID(src % 4), seq: bits.Reverse64(q.ids), id: q.ids}
	q.h.push(&Message{Deliver: k.d, Src: k.src, Seq: k.seq, Event: k.id})
	q.refInsert(k)
}

// repush returns a parked slot to the queue at a new delivery cycle, as
// the engine does with a floating retry.
func (q *queueDriver) repush(pick, class, v byte) {
	if len(q.parked) == 0 {
		return
	}
	j := int(pick) % len(q.parked)
	i := q.parked[j]
	q.parked = append(q.parked[:j], q.parked[j+1:]...)
	m := &q.h.arena[i]
	m.Deliver = q.deliver(class, v)
	q.note(m.Deliver)
	q.h.pushIdx(i)
	q.refInsert(refKey{d: m.Deliver, src: m.Src, seq: m.Seq, id: m.Event})
}

func (q *queueDriver) pop(park bool) {
	if q.refLen() == 0 {
		return
	}
	want := q.ref[q.rh]
	q.rh++
	if q.rh > 1024 && q.rh > len(q.ref)/2 {
		q.ref = append(q.ref[:0], q.ref[q.rh:]...)
		q.rh = 0
	}
	if q.refLen() > 0 && q.ref[q.rh].d == want.d && q.ref[q.rh].src == want.src {
		q.cover.seqTie++
	}
	i := q.h.popIdx()
	m := &q.h.arena[i]
	if got := (refKey{d: m.Deliver, src: m.Src, seq: m.Seq, id: m.Event}); got != want {
		q.t.Fatalf("pop: got %+v, want %+v", got, want)
	}
	q.now = want.d
	if park {
		q.parked = append(q.parked, i)
	} else {
		q.h.release(i)
	}
}

// probe checks top, topDeliver and beats against the reference.
func (q *queueDriver) probe(dd, src, sk byte) {
	if q.refLen() == 0 {
		if !q.h.beats(q.now, 0, 0) {
			q.t.Fatal("beats on an empty queue must be true")
		}
		return
	}
	first := q.ref[q.rh]
	k := refKey{d: first.d + arch.Cycles(dd%3) - 1, src: arch.NetworkID(src % 4)}
	switch sk % 3 {
	case 0:
		k.seq = first.seq - 1
	case 1:
		k.seq = first.seq + 1
	default:
		k.seq = q.rng.Next()
	}
	if k.d < 0 {
		k.d = 0
	}
	if got, want := q.h.beats(k.d, k.src, k.seq), k.before(first); got != want {
		q.t.Fatalf("beats(%d, %d, %d) = %v, want %v against minimum %+v", k.d, k.src, k.seq, got, want, first)
	}
	if got := q.h.topDeliver(); got != first.d {
		q.t.Fatalf("topDeliver = %d, want %d", got, first.d)
	}
	if got := q.h.top(); got.Event != first.id {
		q.t.Fatalf("top = message %d, want %d", got.Event, first.id)
	}
}

func (q *queueDriver) compact() {
	before := len(q.h.free)
	q.h.compact()
	if before > 0 && len(q.h.free) == 0 {
		q.cover.compacted++
	}
}

func (q *queueDriver) check() {
	if q.h.len() != q.refLen() {
		q.t.Fatalf("len = %d, want %d", q.h.len(), q.refLen())
	}
	if q.h.live() != q.refLen()+len(q.parked) {
		q.t.Fatalf("live = %d, want %d", q.h.live(), q.refLen()+len(q.parked))
	}
}

// Bounds that keep one input fast under the fuzzer: the reference's
// sorted insert is linear in the queue length, so both the queue length
// and the pushes per input are capped. maxQueued still lets the arena
// outgrow compact's 4096-slot floor.
const (
	maxQueueOps = 4096
	maxQueued   = 6000
	maxPushes   = 1 << 15
)

// runQueueOps replays data against a fresh queue whose first pushes land
// around cycle origin, and returns the cases it reached. Whatever is left
// at the end, parked slots included, is drained through the same checks.
func runQueueOps(t testing.TB, data []byte, origin arch.Cycles) queueCover {
	if len(data) > maxQueueOps {
		data = data[:maxQueueOps]
	}
	q := &queueDriver{t: t, data: data, now: origin, rng: prng.NewStream(uint64(len(data)))}
	for len(q.data) > 0 {
		switch q.byte() % 8 {
		case 0, 1:
			q.push(q.byte(), q.byte(), q.byte())
		case 2:
			q.repush(q.byte(), q.byte(), q.byte())
		case 3, 4:
			q.pop(q.byte()&1 == 1)
		case 5:
			q.probe(q.byte(), q.byte(), q.byte())
		case 6:
			// Burst: enough traffic to populate many buckets, the far
			// heap and an arena worth compacting.
			n := 1 + int(q.byte())*8
			class := q.byte()
			for j := 0; j < n && q.refLen() < maxQueued; j++ {
				r := q.rng.Next()
				c := class
				if class&0x80 != 0 {
					c = byte(r)
				}
				q.push(c, byte(r>>8), byte(r>>16))
			}
		case 7:
			n := 1 + int(q.byte())*32
			for j := 0; j < n; j++ {
				q.pop(false)
			}
			q.compact()
		}
		q.check()
	}
	for len(q.parked) > 0 {
		q.repush(0, 1, 0)
	}
	for q.refLen() > 0 {
		q.pop(false)
		q.check()
	}
	q.compact()
	q.check()
	return q.cover
}

// TestHeapOrderProperty: random operation sequences pop in exactly the
// reference's (Deliver, Src, Seq) order, and together they reach every
// special case of the calendar queue.
func TestHeapOrderProperty(t *testing.T) {
	var total queueCover
	for seed := uint64(1); seed <= 16; seed++ {
		r := prng.NewStream(seed)
		data := make([]byte, 400+r.Intn(1200))
		for j := range data {
			data[j] = byte(r.Next())
		}
		// The second origin runs the window against the top of the cycle
		// range, where base+ringSpan no longer fits in an int64.
		for _, origin := range []arch.Cycles{0, math.MaxInt64 - 1<<41} {
			var c queueCover
			t.Run(fmt.Sprintf("seed=%d/origin=%d", seed, origin), func(t *testing.T) { c = runQueueOps(t, data, origin) })
			total.add(c)
		}
	}
	t.Logf("cases reached: %+v", total)
	if total.far == 0 || total.slideBack == 0 || total.sameCycle == 0 || total.seqTie == 0 || total.compacted == 0 {
		t.Fatalf("generator missed a queue case: %+v", total)
	}
}

// FuzzMsgQueue is the coverage-guided form of TestHeapOrderProperty.
func FuzzMsgQueue(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 3, 0, 3, 0})
	f.Add([]byte{6, 40, 0x80, 7, 30, 5, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) { runQueueOps(t, data, 0) })
}

// TestSortActive: the active-bucket sort agrees with the standard library
// on random, presorted, reversed and duplicate-key buckets, both through
// quicksort and through the depth-exhausted fallback.
func TestSortActive(t *testing.T) {
	var h msgHeap
	r := prng.NewStream(7)
	for _, n := range []int{0, 1, 2, 15, 16, 17, 120, 1000} {
		for shape := 0; shape < 4; shape++ {
			a := make([]actEnt, n)
			for j := range a {
				a[j] = actEnt{src: int32(r.Intn(8)), i: int32(j), seq: r.Next()}
				switch shape {
				case 1:
					a[j].src, a[j].seq = int32(j/4), uint64(j)
				case 2:
					a[j].src, a[j].seq = int32(n-j), uint64(n-j)
				case 3:
					a[j].seq %= 3
				}
			}
			want := append([]actEnt(nil), a...)
			sort.SliceStable(want, func(x, y int) bool { return h.actBefore(want[x], want[y]) })
			for _, depth := range []int{2 * bits.Len(uint(n)), 0} {
				got := append([]actEnt(nil), a...)
				h.quickSort(got, depth)
				for j := range got {
					// Equal keys may land in either order; compare keys.
					if got[j].src != want[j].src || got[j].seq != want[j].seq {
						t.Fatalf("n=%d shape=%d depth=%d: position %d is %+v, want %+v", n, shape, depth, j, got[j], want[j])
					}
				}
			}
		}
	}
}
