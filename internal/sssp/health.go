package sssp

import (
	"energysssp/internal/flight"
	"energysssp/internal/metrics"
	"energysssp/internal/obs"
)

// health maintains the controller-health gauges from each published flight
// record through metrics.ControllerHealth, the implementation
// metrics.Profile.TrackingError and ConvergenceIter reduce a recorded
// profile with. A nil *health is a no-op.
type health struct {
	p  float64
	mh metrics.ControllerHealth

	trackErr     *obs.Gauge
	trackErrMean *obs.Gauge
	dhat         *obs.Gauge
	alphahat     *obs.Gauge
	convIter     *obs.Gauge
}

// newHealth registers the controller-health gauges on the solve's scope.
// The gauges chain to the fleet registry (last-write-wins), so a single
// solve still exposes the bare sssp_controller_* families at the fleet
// level. Returns nil (disabling all updates) when no scope is attached or
// the solve has no meaningful set-point (near-far runs without one, and
// custom policies may too).
func newHealth(sc *obs.Scope, setPoint float64) *health {
	reg := sc.Registry()
	if reg == nil || setPoint < 1 {
		return nil
	}
	h := &health{p: setPoint}
	reg.Gauge("sssp_controller_set_point",
		"parallelism set-point P the controller steers X2 toward").Set(setPoint)
	h.trackErr = reg.Gauge("sssp_controller_tracking_error",
		"last iteration's set-point tracking error |X2-P|/P")
	h.trackErrMean = reg.Gauge("sssp_controller_tracking_error_mean",
		"mean set-point tracking error |X2-P|/P over the solve")
	h.dhat = reg.Gauge("sssp_controller_d_hat",
		"ADVANCE-MODEL degree estimate d")
	h.alphahat = reg.Gauge("sssp_controller_alpha_hat",
		"BISECT-MODEL density estimate alpha")
	h.convIter = reg.Gauge("sssp_controller_model_convergence_iters",
		"iteration at which both model estimates first moved <1% (-1: not yet)")
	h.convIter.Set(-1)
	return h
}

// observe updates the gauges from one iteration's record. Tracking error is
// scored against the solve's set-point; the model gauges move only when the
// record carries estimates (policies without models leave D and Alpha 0).
func (h *health) observe(rec *flight.Record) {
	if h == nil {
		return
	}
	h.mh.Track(rec.X2, h.p)
	last, mean := h.mh.TrackingError()
	h.trackErr.Set(last)
	h.trackErrMean.Set(mean)
	if rec.D <= 0 || rec.Alpha <= 0 {
		return
	}
	h.dhat.Set(rec.D)
	h.alphahat.Set(rec.Alpha)
	h.mh.Models(int(rec.K), rec.D, rec.Alpha)
	h.convIter.Set(float64(h.mh.ConvergenceIter()))
}
