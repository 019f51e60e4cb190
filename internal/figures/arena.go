package figures

import (
	"fmt"

	"bba/internal/arena"
	"bba/internal/campaign"
	"bba/internal/faults"
)

// ArenaMatrix runs the N-way paired tournament over arena.DefaultField under
// fault weather and renders the head-to-head win-rate matrix: every entrant
// streams the same (user, trace, fault-weather) draws, so each cell is a
// pure algorithm effect with common-random-numbers variance cancellation.
func ArenaMatrix(scale Scale) (*Figure, error) {
	sessions := 160
	if scale == Full {
		sessions = 640
	}
	fc := faults.DefaultScheduleConfig()
	r, err := arena.Run(arena.Config{
		Campaign: campaign.Config{
			Seed:      ExperimentSeed + 37,
			FaultSeed: ExperimentSeed + 37,
			Faults:    &fc,
			Sessions:  sessions,
			ShardSize: 64,
		},
		Entrants: arena.DefaultField,
	})
	if err != nil {
		return nil, err
	}

	fig := &Figure{
		ID:     "ext-arena",
		Title:  "Extension (arena): QoE win rate of column entrant vs row opponent",
		XLabel: "opponent",
		YLabel: "win rate of the column entrant (ties split)",
	}
	// winRate[a][b] = share of paired draws entrant a beats entrant b on
	// session QoE, ties counted half.
	winRate := map[string]map[string]float64{}
	for _, name := range r.Entrants {
		winRate[name] = map[string]float64{}
	}
	for _, m := range r.Matches {
		if m.Sessions == 0 {
			continue
		}
		wa := (float64(m.WinsA) + float64(m.Ties)/2) / float64(m.Sessions)
		winRate[m.A][m.B] = wa
		winRate[m.B][m.A] = 1 - wa
	}
	// Every series carries every column (self is the 0.500 diagonal) so the
	// rendered rows align into a square matrix.
	for _, row := range r.Entrants {
		s := Series{Name: row}
		for _, col := range r.Entrants {
			y := 0.5
			if col != row {
				y = winRate[row][col]
			}
			s.Points = append(s.Points, Point{X: "vs " + col, Y: y})
		}
		fig.Series = append(fig.Series, s)
	}

	for _, m := range r.Matches {
		if !m.DQoEPerPlayhour.Significant() {
			continue
		}
		lead, trail := m.A, m.B
		d, lo, hi := m.DQoEPerPlayhour.Mean, m.DQoEPerPlayhour.CI95Lo, m.DQoEPerPlayhour.CI95Hi
		if d < 0 {
			lead, trail = m.B, m.A
			d, lo, hi = -d, -hi, -lo
		}
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"%s beats %s by %.0f QoE/playhour [%.0f, %.0f] (95%% CI excludes 0)",
			lead, trail, d, lo, hi))
	}
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("every entrant played the same %d (user, trace, fault-weather) draws; cells are pure algorithm effects", sessions),
		"report bytes are worker-count independent — the determinism CI pins this under -race",
	)
	return fig, nil
}
