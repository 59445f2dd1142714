package harness

import (
	"fmt"

	"updown"
	"updown/internal/apps/ingest"
	"updown/internal/apps/match"
	"updown/internal/arch"
	"updown/internal/kvmsr"
	"updown/internal/tform"
)

// Fig10Options configures the ingestion scaling sweep.
type Fig10Options struct {
	SweepOptions
	// BaseRecords is the "data 1x" record count.
	BaseRecords int
	// Multipliers lists the dataset sizes (the paper's data 0.01x..2x).
	Multipliers []float64
	// Nodes is the machine sweep.
	Nodes []int
	// BlockBytes is the parallel-file block size.
	BlockBytes int
	// Seed drives the CSV generator.
	Seed uint64
}

// Fig10Ingestion regenerates Figure 10 / Table 11: TFORM+KVMSR ingestion
// throughput scaling. The metric is mega-records per second of parse plus
// graph insertion.
func Fig10Ingestion(opt Fig10Options) ([]*Table, error) {
	if opt.BaseRecords == 0 {
		opt.BaseRecords = 10000
	}
	if len(opt.Multipliers) == 0 {
		opt.Multipliers = []float64{0.1, 1, 2}
	}
	if len(opt.Nodes) == 0 {
		opt.Nodes = []int{1, 2, 4, 8}
	}
	if opt.BlockBytes == 0 {
		opt.BlockBytes = 512
	}
	if opt.Seed == 0 {
		opt.Seed = 7
	}
	if opt.MaxTime == 0 {
		opt.MaxTime = 1 << 44
	}
	var tables []*Table
	for _, mult := range opt.Multipliers {
		n := int(float64(opt.BaseRecords) * mult)
		if n < 1 {
			n = 1
		}
		data, _ := tform.GenCSV(n, 1<<24, 8, opt.Seed)
		tb := &Table{
			Title:      "Figure 10 / Table 11: Ingestion (TFORM + graph insert)",
			Workload:   fmt.Sprintf("data %gx (%d records, %d bytes)", mult, n, len(data)),
			MetricName: "MRec/s",
		}
		s := &sweep{opt: opt.SweepOptions, tb: tb, tag: fmt.Sprintf("fig10 data=%gx", mult), shuffle: true}
		for _, nodes := range opt.Nodes {
			err := runRow(s, fmt.Sprintf("nodes=%d", nodes), fmt.Sprint(nodes), updown.Config{Nodes: nodes},
				func(m *updown.Machine) (*ingest.App, error) {
					return ingest.New(m, data, ingest.Config{BlockBytes: opt.BlockBytes})
				},
				func(app *ingest.App, m *updown.Machine) (Row, error) {
					if app.Records != uint64(n) {
						return Row{}, fmt.Errorf("parsed %d records, want %d", app.Records, n)
					}
					return rateRow(m, app.Elapsed(), float64(n), 1e6), nil
				})
			if err != nil {
				return nil, err
			}
		}
		tb.FillSpeedups()
		tb.Notes = append(tb.Notes, "record counts validated at every configuration")
		tables = append(tables, tb)
	}
	return tables, nil
}

// Fig11Options configures the partial-match latency sweep.
type Fig11Options struct {
	SweepOptions
	// Records is the stream length.
	Records int
	// Interarrival is the record gap in cycles (small enough to queue).
	Interarrival arch.Cycles
	// LaneCounts sweeps the processing resources; the paper's 1/8, 1/2,
	// 1 and 4 nodes correspond to 256, 1024, 2048 and 8192 lanes.
	LaneCounts []int
	Seed       uint64
}

// Fig11PartialMatch regenerates Figure 11 / Table 12: streaming query
// latency versus compute resources. The metric is mean
// arrival-to-decision latency in microseconds; speedup is the latency
// reduction relative to the smallest configuration.
func Fig11PartialMatch(opt Fig11Options) (*Table, error) {
	if opt.Records == 0 {
		opt.Records = 1500
	}
	if opt.Interarrival == 0 {
		opt.Interarrival = 8
	}
	if len(opt.LaneCounts) == 0 {
		// The paper's 1/8-to-4-node sweep relies on the stream
		// saturating the small configurations; at reduced record
		// counts that regime lives below one node.
		opt.LaneCounts = []int{32, 128, 512, 2048}
	}
	if opt.Seed == 0 {
		opt.Seed = 11
	}
	if opt.MaxTime == 0 {
		opt.MaxTime = 1 << 46
	}
	_, records := tform.GenCSV(opt.Records, 4096, 4, opt.Seed)
	patterns := []match.Pattern{
		{Types: []uint64{0, 1}},
		{Types: []uint64{1, 2, 3}},
		{Types: []uint64{2, 2}},
	}
	want := match.Oracle(records, patterns)
	tb := &Table{
		Title:      "Figure 11 / Table 12: Partial match latency",
		Workload:   fmt.Sprintf("%d streamed records, 3 patterns, interarrival %d cycles", opt.Records, opt.Interarrival),
		MetricName: "lat-us",
	}
	s := &sweep{opt: opt.SweepOptions, tb: tb, tag: "fig11"}
	var baseLat float64
	for _, lanes := range opt.LaneCounts {
		err := runRow(s, fmt.Sprintf("lanes=%d", lanes), fmt.Sprintf("%d lanes", lanes),
			updown.Config{Nodes: (lanes + 2047) / 2048},
			func(m *updown.Machine) (*match.App, error) {
				return match.New(m, records, patterns, match.Config{
					Lanes:        kvmsr.LaneSet{First: 0, Count: lanes},
					Interarrival: opt.Interarrival,
				})
			},
			func(app *match.App, m *updown.Machine) (Row, error) {
				if app.Processed() != uint64(opt.Records) {
					return Row{}, fmt.Errorf("processed %d of %d", app.Processed(), opt.Records)
				}
				lat := app.AvgLatency()
				if baseLat == 0 {
					baseLat = lat
				}
				return Row{Cycles: arch.Cycles(lat), Seconds: lat / 2e9, Speedup: baseLat / lat, Metric: lat / 2e9 * 1e6}, nil
			})
		if err != nil {
			return nil, err
		}
	}
	tb.Notes = append(tb.Notes,
		fmt.Sprintf("sequential oracle expects %d matches; racing streams may detect fewer (incremental semantics)", want))
	return tb, nil
}
