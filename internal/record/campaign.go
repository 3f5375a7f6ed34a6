package record

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"mavfi/internal/campaign"
	"mavfi/internal/pipeline"
	"mavfi/internal/qof"
)

// MissionPath returns the recording path for mission i of a campaign cell
// rooted at dir: dir/mission-%05d.rec (zero-padded so lexical order is
// mission order).
func MissionPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("mission-%05d.rec", i))
}

// RunCampaign runs the n missions of one campaign cell across r's worker
// pool, recording mission i to MissionPath(dir, i) (dir is created if
// missing); an empty dir flies the campaign unrecorded. It is the one loop
// that records a campaign — cmd/mavfi's golden and injection campaigns and
// the campaign matrix's RecordDir mode all fly through it — so every
// recorded campaign has the layout ScanDir recovers. Each worker writes only
// its mission's file, so recording is safe at any worker width, and because
// mission i's configuration and flight depend only on i, the files
// themselves are byte-identical regardless of how many workers produced
// them (the property `make replay-verify` checks with cmp across widths).
//
// Recording failures do not abort the campaign: a mission whose file cannot
// be created or written still flies and its metrics still aggregate; the
// first recording error is returned after the campaign completes (a context
// error takes precedence, as in campaign.Runner.Run).
func RunCampaign(ctx context.Context, r *campaign.Runner, dir, name string, n int, makeCfg func(i int) pipeline.Config) (*campaign.Outcome, error) {
	if dir == "" {
		return r.Run(ctx, name, n, func(i int) qof.Metrics {
			return pipeline.RunMission(makeCfg(i)).Metrics
		})
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var firstErr error
	out, err := r.Run(ctx, name, n, func(i int) qof.Metrics {
		cfg := makeCfg(i)
		var res pipeline.Result
		f, err := os.Create(MissionPath(dir, i))
		if err != nil {
			res = pipeline.RunMission(cfg) // no file: fly unrecorded
		} else {
			res, err = RunRecorded(cfg, f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = fmt.Errorf("record: mission %d: %w", i, err)
			}
			mu.Unlock()
		}
		return res.Metrics
	})
	if err != nil {
		return out, err
	}
	// A mission abandoned at its deadline may still be running.
	mu.Lock()
	defer mu.Unlock()
	return out, firstErr
}
