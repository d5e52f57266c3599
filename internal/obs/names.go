package obs

// Canonical metric names. Every instrumented package pulls its names from
// here so the exposition, the manifests, and the documentation can never
// drift apart. All series carry the phasefold_ prefix; durations are in
// seconds (Prometheus convention).
const (
	// Decoders (internal/trace).
	MetricRecordsDecoded = "phasefold_records_decoded_total"   // counter: events+samples decoded
	MetricDecodePasses   = "phasefold_decode_passes_total"     // counter{format,mode}: decode calls
	MetricSalvageRepairs = "phasefold_salvage_repairs_total"   // counter: records repaired or cleared by salvage
	MetricDecodeDuration = "phasefold_decode_duration_seconds" // histogram{format}
	// Pipeline stages (internal/core).
	MetricStageDuration   = "phasefold_stage_duration_seconds" // histogram{stage}
	MetricAnalyses        = "phasefold_analyses_total"         // counter{outcome}: ok|degraded|error
	MetricBurstsExtracted = "phasefold_bursts_extracted_total" // counter
	MetricClustersFound   = "phasefold_clusters_found_total"   // counter
	MetricNoiseBursts     = "phasefold_noise_bursts_total"     // counter
	MetricDiagnostics     = "phasefold_diagnostics_total"      // counter{kind}
	// Structure detection (internal/cluster).
	MetricDBSCANExpansions = "phasefold_dbscan_expansions_total" // counter: points whose core test needed distance queries
	MetricRefineRounds     = "phasefold_refine_rounds_total"     // counter: refinement ladder steps
	// Piece-wise linear fits (internal/pwl).
	MetricDPCells  = "phasefold_pwl_dp_cells_total"   // counter: DP cells evaluated
	MetricPWLFits  = "phasefold_pwl_fits_total"       // counter: successful fits
	MetricFitIters = "phasefold_pwl_fit_points_total" // counter: points consumed by completed fits
	// Result exports (internal/export): per-phase analysis snapshots. These
	// describe the analyzed application, not the tool, but share the naming
	// scheme so a run's self-telemetry and its result snapshot can live in
	// the same scrape without colliding.
	MetricPhaseDuration   = "phasefold_phase_duration_seconds"    // gauge{cluster,phase}: phase share of the representative burst
	MetricPhaseMetric     = "phasefold_phase_metric"              // gauge{cluster,phase,metric}: derived per-phase metric (MIPS, IPC, ...)
	MetricPhaseShare      = "phasefold_phase_attribution_share"   // gauge{cluster,phase,source}: dominant-construct share
	MetricClusterSeconds  = "phasefold_cluster_total_seconds"     // gauge{cluster}: summed member computation time
	MetricClusterBursts   = "phasefold_cluster_bursts"            // gauge{cluster}: member burst count
	MetricClusterQuality  = "phasefold_cluster_quality"           // gauge{cluster,quality}: 1 for the cluster's grade
	MetricModelSPMD       = "phasefold_model_spmd_score"          // gauge: structure-quality score in [0,1]
	MetricModelBursts     = "phasefold_model_bursts"              // gauge: extracted computation bursts
	MetricModelClusters   = "phasefold_model_clusters"            // gauge: detected clusters
	MetricModelNoise      = "phasefold_model_noise_bursts"        // gauge: unclustered bursts
	MetricModelComputeSec = "phasefold_model_computation_seconds" // gauge: summed burst time
	// Batch supervisor (internal/runner).
	MetricJobs               = "phasefold_runner_jobs_total"           // counter{outcome}
	MetricJobAttempts        = "phasefold_runner_attempts_total"       // counter
	MetricJobRetries         = "phasefold_runner_retries_total"        // counter
	MetricBreakerTrips       = "phasefold_runner_breaker_trips_total"  // counter
	MetricBreakerTransitions = "phasefold_runner_breaker_state_total"  // counter{to}: closed|open|half-open
	MetricJobDuration        = "phasefold_runner_job_duration_seconds" // histogram{outcome}
	// Analysis daemon (internal/service).
	MetricHTTPRequests  = "phasefold_http_requests_total"          // counter{route,code}
	MetricAdmitRejected = "phasefold_admission_rejected_total"     // counter{reason}: quota|queue_full|draining|body
	MetricQueueDepth    = "phasefold_service_queue_depth"          // gauge: queued + running jobs
	MetricCacheEvents   = "phasefold_service_cache_events_total"   // counter{event}: hit|miss|coalesced|evicted
	MetricCacheEntries  = "phasefold_service_cache_entries"        // gauge
	MetricCacheBytes    = "phasefold_service_cache_bytes"          // gauge
	MetricUploadBytes   = "phasefold_service_upload_bytes_total"   // counter: accepted request-body bytes
	MetricHTTPEvents    = "phasefold_http_events_total"            // counter{event}: abandoned
	MetricStreamUploads = "phasefold_service_stream_uploads_total" // counter{result}: pristine|fallback
	// Durability layer (internal/service store + journal).
	MetricPersistEvents  = "phasefold_service_persist_events_total" // counter{event}: put|hit|expired|quarantined|evicted|error|degraded|recovered
	MetricPersistEntries = "phasefold_service_persist_entries"      // gauge: results held on disk
	MetricPersistBytes   = "phasefold_service_persist_bytes"        // gauge: bytes held on disk
	MetricJournalEvents  = "phasefold_service_journal_events_total" // counter{event}: accept|done|recovered|lost|orphan_swept|torn|error
	// Job-lifecycle tracing (internal/service).
	MetricJobStageSeconds = "phasefold_job_stage_seconds"        // histogram{stage,outcome}: wall time per lifecycle stage
	MetricJobE2ESeconds   = "phasefold_job_e2e_seconds"          // histogram{outcome}: accept-to-publish end-to-end time
	MetricTenantJobs      = "phasefold_tenant_jobs_total"        // counter{tenant,outcome}
	MetricTenantE2E       = "phasefold_tenant_e2e_seconds"       // histogram{tenant}: per-tenant end-to-end time
	MetricTenantQueueAge  = "phasefold_tenant_queue_age_seconds" // histogram{tenant}: enqueue-to-dequeue wait
	MetricTenantTTFB      = "phasefold_tenant_ttfb_seconds"      // histogram{tenant}: request arrival to first result byte
	MetricSlowJobs        = "phasefold_slow_jobs_total"          // counter: jobs past the -slow-job threshold
	// OTLP exporter (internal/obs/otlp).
	MetricOTLPExported = "phasefold_otlp_exported_total" // counter{signal}: spans|metric batches delivered
	MetricOTLPDropped  = "phasefold_otlp_dropped_total"  // counter{signal}: batches dropped (queue full or retries exhausted)
	MetricOTLPRetries  = "phasefold_otlp_retries_total"  // counter: delivery retries scheduled
	MetricOTLPFailures = "phasefold_otlp_failures_total" // counter{reason}: send|status failures
	// Runtime resource sampler (internal/obs).
	MetricGoGoroutines = "go_goroutines"       // gauge: live goroutines
	MetricGoHeapAlloc  = "go_heap_alloc_bytes" // gauge: bytes of allocated heap objects
	MetricGoGCPause    = "go_gc_pause_seconds" // gauge: most recent GC stop-the-world pause
	// Stage throughput (internal/trace, internal/core).
	MetricStageThroughput = "phasefold_stage_records_per_second" // gauge{stage}: latest per-stage record rate
	// Process identity.
	MetricBuildInfo = "phasefold_build_info" // gauge{version,go}: constant 1; identity lives in the labels
)
