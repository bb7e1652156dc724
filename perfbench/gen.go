package main

import "math/rand"

// Inputs are generated from the seed alone, before any timing starts.
// Each generator draws from its own math/rand source (whose sequence is
// fixed by the Go 1 compatibility promise), so the same seed yields
// byte-identical inputs on every host (gen_test.go checks it).

// Input sizes. Runs that consume more than was generated wrap around;
// the sizes cover several times today's throughput at 60 s.
const (
	oltpItems = 1000
	oltpTxns  = 100_000

	fraudCards     = 2000
	fraudMerchants = 50
	fraudEvents    = 1 << 22

	rwAccounts = 100_000
	rwPairs    = rwAccounts / 2
	rwBranches = 64
	rwPairSum  = 2000
	rwWrites   = 1 << 18
	rwReads    = 1 << 21
	// rwSelectEvery places one class Select among this many reads; the
	// rest are point reads of one transfer pair.
	rwSelectEvery = 4096
)

func zipf(r *rand.Rand, n int) *rand.Zipf { return rand.NewZipf(r, 1.1, 1, uint64(n-1)) }

// ---- oltp-inventory -------------------------------------------------

// Line kinds of an inventory transaction.
const (
	lineSale     = iota // quantity -= amount
	lineRestock         // quantity += amount (may overshoot maxquantity: clamp)
	lineMinRaise        // minquantity = amount (then a sale on the item: reorder)
)

type oltpItem struct{ quantity, minquantity, maxquantity int64 }

type oltpLine struct {
	kind   uint8
	item   uint16
	amount int32
}

type oltpInput struct {
	items []oltpItem
	lines []oltpLine
	// ends[i] is one past the last line of transaction i.
	ends []int32
}

func genOLTP(seed int64) *oltpInput {
	r := rand.New(rand.NewSource(seed))
	in := &oltpInput{items: make([]oltpItem, oltpItems)}
	for i := range in.items {
		in.items[i] = oltpItem{
			quantity:    50 + r.Int63n(100),
			minquantity: 10 + r.Int63n(30),
			maxquantity: 150 + r.Int63n(150),
		}
	}
	z := zipf(r, oltpItems)
	in.lines = make([]oltpLine, 0, oltpTxns*4)
	in.ends = make([]int32, 0, oltpTxns)
	for t := 0; t < oltpTxns; t++ {
		for n := 2 + r.Intn(2); n > 0; n-- {
			item := uint16(z.Uint64())
			switch p := r.Intn(100); {
			case p < 60:
				in.lines = append(in.lines, oltpLine{lineSale, item, 1 + r.Int31n(30)})
			case p < 85:
				in.lines = append(in.lines, oltpLine{lineRestock, item, 10 + r.Int31n(200)})
			default:
				in.lines = append(in.lines,
					oltpLine{lineMinRaise, item, 20 + r.Int31n(120)},
					oltpLine{lineSale, item, 1 + r.Int31n(30)})
			}
		}
		in.ends = append(in.ends, int32(len(in.lines)))
	}
	return in
}

// txn returns the lines of transaction i (wrapping around).
func (in *oltpInput) txn(i int) []oltpLine {
	i %= len(in.ends)
	lo := int32(0)
	if i > 0 {
		lo = in.ends[i-1]
	}
	return in.lines[lo:in.ends[i]]
}

// ---- stream-fraud ---------------------------------------------------

// Streamed event kinds. The first two are the bulk of the stream; the
// rest are rare and drive the composite patterns of the rule set.
const (
	evSpend      = iota // modify(card.spent) on a card
	evVolume            // modify(merchant.volume) on a merchant
	evLimit             // modify(card.limit)
	evCountry           // modify(card.country)
	evPin               // modify(card.pin)
	evFlag              // modify(card.flagged)
	evRisk              // modify(merchant.risk)
	evDeclined          // external(declined)
	evChargeback        // external(chargeback)
	evRefund            // external(refund)
	evTick              // external(tick)
	evKinds
)

// fraudMix is the share of each kind, in events per 100,000.
var fraudMix = [evKinds]int{
	evSpend: 93_140, evVolume: 6_000, evLimit: 150, evCountry: 150, evPin: 100,
	evFlag: 50, evRisk: 100, evDeclined: 120, evChargeback: 60, evRefund: 30, evTick: 100,
}

type fraudCard struct {
	spent, limit int64
	flagged      bool
}

type fraudEvent struct {
	kind uint8
	obj  uint16 // card or merchant index; unused for external signals
}

type fraudInput struct {
	cards     []fraudCard
	merchRisk []int64
	events    []fraudEvent
}

func genFraud(seed int64) *fraudInput {
	r := rand.New(rand.NewSource(seed))
	in := &fraudInput{cards: make([]fraudCard, fraudCards), merchRisk: make([]int64, fraudMerchants)}
	for i := range in.cards {
		limit := 500 + r.Int63n(4500)
		in.cards[i] = fraudCard{spent: r.Int63n(limit + limit/5), limit: limit, flagged: r.Intn(50) == 0}
	}
	for i := range in.merchRisk {
		in.merchRisk[i] = r.Int63n(10)
	}
	var cum [evKinds]int
	acc := 0
	for k, w := range fraudMix {
		acc += w
		cum[k] = acc
	}
	cardZ := zipf(r, fraudCards)
	merchZ := zipf(r, fraudMerchants)
	in.events = make([]fraudEvent, fraudEvents)
	for i := range in.events {
		p := r.Intn(acc)
		k := 0
		for p >= cum[k] {
			k++
		}
		ev := fraudEvent{kind: uint8(k)}
		switch k {
		case evVolume, evRisk:
			ev.obj = uint16(merchZ.Uint64())
		case evDeclined, evChargeback, evRefund, evTick:
		default:
			ev.obj = uint16(cardZ.Uint64())
		}
		in.events[i] = ev
	}
	return in
}

// ---- rw-snapshot ----------------------------------------------------

type rwWrite struct {
	pair   uint32
	amount int32 // moved from the pair's first to its second account; negative the other way
}

type rwRead struct {
	pair   uint32
	selekt bool
}

type rwInput struct {
	// first[p] is the opening balance of pair p's first account; the
	// second holds rwPairSum - first[p].
	first  []int64
	writes []rwWrite
	reads  []rwRead
}

func genRW(seed int64) *rwInput {
	r := rand.New(rand.NewSource(seed))
	in := &rwInput{first: make([]int64, rwPairs)}
	for p := range in.first {
		in.first[p] = 200 + r.Int63n(rwPairSum-400)
	}
	in.writes = make([]rwWrite, rwWrites)
	for i := range in.writes {
		in.writes[i] = rwWrite{pair: uint32(r.Intn(rwPairs)), amount: int32(r.Intn(401) - 200)}
	}
	z := zipf(r, rwPairs)
	in.reads = make([]rwRead, rwReads)
	for i := range in.reads {
		in.reads[i] = rwRead{pair: uint32(z.Uint64()), selekt: r.Intn(rwSelectEvery) == 0}
	}
	return in
}
