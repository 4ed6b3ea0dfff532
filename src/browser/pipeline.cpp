#include "browser/pipeline.hpp"

#include <stdexcept>

namespace eab::browser {

PageLoad::PageLoad(sim::Simulator& sim, net::HttpClient& client,
                   CpuScheduler& cpu, PipelineConfig config, std::uint64_t seed)
    : sim_(sim),
      client_(client),
      cpu_(cpu),
      config_(config),
      rng_(seed),
      interpreter_(std::make_unique<web::js::Interpreter>(*this)) {
  // Mobile pages: stock browsers redraw these short loads sparingly, with
  // the intermediate display landing close to the end (Section 5.2).
  if (config_.mobile_page) {
    config_.redraw_min_interval = std::max(config_.redraw_min_interval, 3.0);
  }
}

PageLoad::~PageLoad() = default;

void PageLoad::start(const std::string& url, OnLoaded done) {
  if (phase_ != Phase::kIdle) {
    throw std::logic_error("PageLoad::start: already started");
  }
  if (!done) throw std::invalid_argument("PageLoad::start: empty callback");
  phase_ = Phase::kTransmission;
  main_url_ = url;
  on_loaded_ = std::move(done);
  metrics_.started = sim_.now();
  if (trace_) {
    trace_->record(sim_.now(), obs::TraceKind::kLoadStart, 0, 0, 0,
                   trace_->intern(url));
  }
  issue_fetch(url, net::ResourceKind::kHtml);
}

bool PageLoad::abort() {
  if (phase_ == Phase::kIdle || phase_ == Phase::kDone) return false;
  const bool in_transmission = phase_ == Phase::kTransmission;
  // Flip the phase first: every teardown below re-enters this object
  // (abort_all settles fetches synchronously), and those callbacks must see
  // the load as dead.
  phase_ = Phase::kDone;
  metrics_.aborted = true;
  metrics_.aborted_at = sim_.now();
  if (in_transmission) {
    // Partial transmission window: to the last byte actually received.
    metrics_.transmission_done = last_byte_at_ > 0 ? last_byte_at_ : sim_.now();
  }
  metrics_.final_display = sim_.now();
  if (metrics_.first_display == 0) metrics_.first_display = sim_.now();

  // Tear down in dependency order: CPU work (nothing queued may run, and
  // the running task will not call back, since a driver may free this load
  // before that task ends), the pending intermediate reflow, then every
  // unsettled fetch — which cancels link flows and releases RRC transfer
  // markers, leaving the radio to its inactivity timers.
  cpu_.cancel(pending_reflow_);
  pending_reflow_ = {};
  redraw_queued_ = false;
  cpu_.drop_queued();
  // Fetches torn down here settle as kAborted; the dead() guard keeps their
  // settle callbacks from mutating frozen metrics, so account them as failed
  // resources in one place.
  metrics_.failed_resources += static_cast<int>(client_.abort_all());

  if (trace_) {
    trace_->record(sim_.now(), obs::TraceKind::kLoadAborted, 0, 0, sim_.now());
  }
  compute_outputs();
  on_loaded_(metrics_);
  return true;
}

void PageLoad::trace_stage(obs::Stage stage, Seconds cost) {
  if (trace_) {
    trace_->record(sim_.now(), obs::TraceKind::kStageRun,
                   static_cast<std::int64_t>(stage), 0, cost);
  }
}

// --- JsHost ------------------------------------------------------------------

void PageLoad::document_write(const std::string& html) {
  pending_document_writes_.push_back(html);
}

void PageLoad::request_resource(const std::string& url, net::ResourceKind kind) {
  // Requests surface when the script's CPU task completes; buffered until
  // then (run_script drains this).
  pending_requests_.emplace_back(url, kind);
}

double PageLoad::random() { return rng_.uniform(); }

// --- fetch plumbing -----------------------------------------------------------

void PageLoad::issue_fetch(const std::string& url, net::ResourceKind kind) {
  if (url.empty()) return;
  if (!requested_urls_.insert(url).second) return;  // already requested
  work_started();
  // The reorganized pipeline pulls discovery-bearing resources first so the
  // reference chain unrolls while leaf images stream in the background.
  if (kind == net::ResourceKind::kCss) ++css_requested_;
  if (kind == net::ResourceKind::kJs) script_order_.push_back(url);
  const bool priority =
      config_.mode == PipelineMode::kEnergyAware && config_.priority_fetch &&
      (kind == net::ResourceKind::kHtml || kind == net::ResourceKind::kCss ||
       kind == net::ResourceKind::kJs);
  client_.fetch(
      url,
      [this, kind](const net::FetchResult& result) { on_resource(result, kind); },
      priority);
}

void PageLoad::on_resource(const net::FetchResult& result,
                           net::ResourceKind declared_kind) {
  // A fetch settled by abort_all (or a cache hit surfacing after abort)
  // lands on a finalized load: the metrics are frozen, nothing may spawn.
  if (dead()) return;
  if (result.attempts > 1) metrics_.fetch_retries += result.attempts - 1;
  if (result.resource == nullptr) {
    // Nothing usable arrived: a 404, or a network failure that exhausted
    // its retries. Either way the load degrades instead of hanging — a
    // missing stylesheet must not block the first paint forever, a missing
    // script is skipped when its document-order turn comes, and a missing
    // image keeps its DOM node, which the layout estimator sizes as a
    // default placeholder box.
    ++metrics_.failed_resources;
    if (declared_kind == net::ResourceKind::kImage ||
        declared_kind == net::ResourceKind::kFlash) {
      ++metrics_.placeholder_images;
    }
    if (declared_kind == net::ResourceKind::kCss) ++css_settled_;
    if (declared_kind == net::ResourceKind::kJs) {
      settle_script(result.url, nullptr);
      return;  // settle_script owns the outstanding-work unit
    }
    work_finished();
    return;
  }
  if (result.status == net::FetchStatus::kTruncated) {
    ++metrics_.truncated_resources;
  }
  if (result.owned != nullptr) {
    // Partial bodies are owned by the fetch result, not the server; keep
    // them alive for the deferred parse/decode passes.
    retained_resources_.push_back(result.owned);
  }
  const net::Resource& resource = *result.resource;
  ++metrics_.objects_fetched;
  metrics_.bytes_fetched += resource.size;
  last_byte_at_ = sim_.now();

  // The server's own kind wins over what the referencing markup implied.
  const net::ResourceKind kind = resource.kind != net::ResourceKind::kOther
                                     ? resource.kind
                                     : declared_kind;
  const bool is_figure =
      kind == net::ResourceKind::kImage || kind == net::ResourceKind::kFlash;
  if (is_figure) {
    ++figure_count_;
    figure_bytes_ += resource.size;
  } else {
    page_bytes_without_figures_ += resource.size;
  }

  switch (kind) {
    case net::ResourceKind::kHtml:
      handle_html(resource, resource.url == main_url_);
      break;
    case net::ResourceKind::kCss:
      handle_css(resource);
      break;
    case net::ResourceKind::kJs:
      ++js_file_count_;
      settle_script(resource.url, &resource);
      break;
    case net::ResourceKind::kImage:
    case net::ResourceKind::kFlash:
    case net::ResourceKind::kOther:
      handle_binary(resource);
      break;
  }
}

// --- per-kind processing --------------------------------------------------------

void PageLoad::handle_html(const net::Resource& resource, bool is_main) {
  const Seconds parse_cost = config_.costs.html_parse(resource.size);
  cpu_.submit(parse_cost, [this, &resource, is_main, parse_cost] {
    if (dead()) return;
    trace_stage(obs::Stage::kHtmlParse, parse_cost);
    web::ParsedHtml harvest;
    web::parse_html_fragment(resource.body, doc_.dom.root(), harvest);
    after_discovery(harvest);

    if (config_.mode == PipelineMode::kOriginal) {
      ++processed_since_redraw_;
      maybe_intermediate_display();
    } else if (is_main && !config_.mobile_page && !intermediate_drawn_ &&
               config_.intermediate_text_display) {
      // Section 4.2: one simplified text display after ~1/3 of the document
      // has been parsed; no CSS rules, no images, never updated again.
      intermediate_drawn_ = true;
      const Seconds cost =
          config_.costs.display_overhead +
          config_.costs.text_display_discount *
              (config_.costs.layout_per_node + config_.costs.render_per_node) *
              static_cast<double>(doc_.dom.node_count());
      cpu_.submit(cost, [this, cost] {
        if (dead()) return;
        trace_stage(obs::Stage::kTextDisplay, cost);
        if (trace_) {
          trace_->record(sim_.now(), obs::TraceKind::kIntermediateDisplay);
        }
        if (metrics_.first_display == 0) metrics_.first_display = sim_.now();
        ++metrics_.intermediate_displays;
      });
    }
    work_finished();
  });
}

void PageLoad::handle_css(const net::Resource& resource) {
  if (config_.mode == PipelineMode::kOriginal || !config_.defer_css_parse) {
    // Stock browser: full rule extraction as soon as the sheet arrives.
    const Seconds parse_cost = config_.costs.css_parse(resource.size);
    cpu_.submit(parse_cost, [this, &resource, parse_cost] {
      if (dead()) return;
      trace_stage(obs::Stage::kCssParse, parse_cost);
      web::StyleSheet sheet = web::parse_css(resource.body);
      for (const auto& url : sheet.url_refs) {
        issue_fetch(url, net::kind_from_url(url));
      }
      sheets_.push_back(std::move(sheet));
      ++css_settled_;
      if (config_.mode == PipelineMode::kOriginal) {
        ++processed_since_redraw_;
        maybe_intermediate_display();
      }
      work_finished();
    });
    return;
  }
  // Energy-aware: cheap reference scan now, full parse postponed to phase 2.
  const Seconds scan_cost = config_.costs.css_scan(resource.size);
  cpu_.submit(scan_cost, [this, &resource, scan_cost] {
    if (dead()) return;
    trace_stage(obs::Stage::kCssScan, scan_cost);
    for (const auto& url : web::scan_css_urls(resource.body)) {
      issue_fetch(url, net::kind_from_url(url));
    }
    deferred_css_.push_back(&resource);
    work_finished();
  });
}

void PageLoad::settle_script(const std::string& url,
                             const net::Resource* resource) {
  arrived_scripts_[url] = resource;  // nullptr = failed, skip when its turn comes
  pump_scripts();
}

void PageLoad::pump_scripts() {
  // Execute arrived scripts strictly in document order; a missing earlier
  // script holds later ones back exactly as a blocking <script> tag would.
  while (next_script_ < script_order_.size()) {
    auto it = arrived_scripts_.find(script_order_[next_script_]);
    if (it == arrived_scripts_.end()) return;  // still in flight
    const net::Resource* script = it->second;
    ++next_script_;
    if (script == nullptr) {
      work_finished();  // 404: nothing to run
      continue;
    }
    run_script(script->body);
  }
}

void PageLoad::handle_binary(const net::Resource& resource) {
  if (config_.mode == PipelineMode::kOriginal) {
    const Seconds decode_cost = config_.costs.image_decode(resource.size);
    cpu_.submit(decode_cost, [this, &resource, decode_cost] {
      if (dead()) return;
      trace_stage(obs::Stage::kImageDecode, decode_cost);
      decoded_image_bytes_ += resource.size;
      ++processed_since_redraw_;
      maybe_intermediate_display();
      work_finished();
    });
    return;
  }
  // Energy-aware: keep the bytes in memory, decode in the layout phase.
  deferred_images_.push_back(&resource);
  work_finished();
}

void PageLoad::run_script(const std::string& source) {
  // Execute now to learn the script's cost and effects; the effects become
  // visible when the CPU task finishes, so simulated time still pays for the
  // execution before any discovered fetch goes out.
  pending_document_writes_.clear();
  pending_requests_.clear();
  const web::js::RunResult run = interpreter_->run(source);
  // Failed scripts charge for the ops they managed to execute, then the page
  // load carries on — a broken ad script must not wedge the browser.
  auto writes = std::move(pending_document_writes_);
  auto requests = std::move(pending_requests_);
  pending_document_writes_.clear();
  pending_requests_.clear();

  Seconds cost = config_.costs.js_run(run.ops);
  Bytes written_bytes = 0;
  for (const auto& fragment : writes) written_bytes += fragment.size();
  cost += config_.costs.html_parse(written_bytes);
  metrics_.js_time += cost;

  cpu_.submit(cost, [this, cost, writes = std::move(writes),
                     requests = std::move(requests)] {
    if (dead()) return;
    trace_stage(obs::Stage::kJsRun, cost);
    for (const auto& [url, kind] : requests) issue_fetch(url, kind);
    for (const auto& fragment : writes) {
      web::ParsedHtml harvest;
      web::parse_html_fragment(fragment, doc_.dom.root(), harvest);
      after_discovery(harvest);
    }
    if (config_.mode == PipelineMode::kOriginal) {
      ++processed_since_redraw_;
      maybe_intermediate_display();
    }
    work_finished();
  });
}

void PageLoad::after_discovery(const web::ParsedHtml& harvest) {
  for (const auto& ref : harvest.references) {
    issue_fetch(ref.url, ref.kind);
  }
  for (const auto& script : harvest.inline_scripts) {
    work_started();  // each inline script is one more discovery task
    run_script(script);
  }
  for (const auto& url : harvest.secondary_urls) {
    doc_.secondary_urls.push_back(url);
  }
  doc_.text_bytes += harvest.text_bytes;
}

// --- intermediate display (original pipeline) ---------------------------------

void PageLoad::maybe_intermediate_display() {
  if (phase_ != Phase::kTransmission) return;
  if (redraw_queued_) return;
  if (processed_since_redraw_ < 1) return;
  // Stylesheets are render-blocking in stock engines: no paint before every
  // requested sheet has been parsed (or definitively failed).
  if (css_settled_ < css_requested_) return;
  if (sim_.now() < last_redraw_at_ + config_.redraw_min_interval) return;
  submit_reflow();
}

void PageLoad::submit_reflow() {
  redraw_queued_ = true;
  processed_since_redraw_ = 0;
  last_redraw_at_ = sim_.now();
  // A reflow recalculates layout for the whole tree and redraws everything
  // (Section 4.2), plus re-matching style when any sheet is parsed.
  const auto nodes = static_cast<double>(doc_.dom.node_count());
  const Seconds per_node =
      config_.costs.layout_per_node + config_.costs.render_per_node +
      (sheets_.empty() ? 0.0 : config_.costs.style_format_per_node);
  const Seconds cost = config_.costs.display_overhead +
                       config_.costs.reflow_factor * per_node * nodes;
  pending_reflow_ = cpu_.submit(cost, [this, cost] {
    if (dead()) return;
    trace_stage(obs::Stage::kReflow, cost);
    if (trace_) trace_->record(sim_.now(), obs::TraceKind::kIntermediateDisplay);
    redraw_queued_ = false;
    pending_reflow_ = {};
    if (metrics_.first_display == 0) metrics_.first_display = sim_.now();
    ++metrics_.intermediate_displays;
  });
}

// --- phase machinery -----------------------------------------------------------

void PageLoad::work_started() { ++outstanding_; }

void PageLoad::work_finished() {
  if (outstanding_ <= 0) {
    throw std::logic_error("PageLoad: work_finished without work_started");
  }
  --outstanding_;
  if (outstanding_ == 0 && phase_ == Phase::kTransmission) {
    transmission_complete();
  }
}

void PageLoad::transmission_complete() {
  phase_ = Phase::kLayout;
  // The paper's "data transmission time" runs to the last received byte;
  // any processing still draining after it is computation, not transmission.
  metrics_.transmission_done = last_byte_at_ > 0 ? last_byte_at_ : sim_.now();
  if (trace_) {
    trace_->record(sim_.now(), obs::TraceKind::kTransmissionComplete, 0, 0,
                   metrics_.transmission_done);
  }
  if (on_tx_complete_) on_tx_complete_();
  begin_layout_phase();
}

void PageLoad::begin_layout_phase() {
  // Display coalescing: an intermediate redraw that has not started by the
  // time the final display is queued will never be seen — drop it.
  if (cpu_.cancel(pending_reflow_)) {
    redraw_queued_ = false;
    pending_reflow_ = {};
  }
  if (config_.mode == PipelineMode::kEnergyAware) {
    // Postponed layout computation: full CSS parse, then image decodes.
    for (const net::Resource* css : deferred_css_) {
      const Seconds parse_cost = config_.costs.css_parse(css->size);
      cpu_.submit(parse_cost, [this, css, parse_cost] {
        if (dead()) return;
        trace_stage(obs::Stage::kCssParse, parse_cost);
        sheets_.push_back(web::parse_css(css->body));
      });
    }
    for (const net::Resource* image : deferred_images_) {
      const Seconds decode_cost = config_.costs.image_decode(image->size);
      cpu_.submit(decode_cost, [this, image, decode_cost] {
        if (dead()) return;
        trace_stage(obs::Stage::kImageDecode, decode_cost);
        decoded_image_bytes_ += image->size;
      });
    }
  }
  // Final display. The energy-aware pipeline pays the full postponed
  // style+layout+render here; the stock pipeline has been laying out
  // incrementally all along, so its final draw is a render-only pass over
  // the already-computed layout.
  const Seconds final_cost =
      config_.mode == PipelineMode::kEnergyAware
          ? style_layout_render_cost()
          : config_.costs.render_per_node *
                static_cast<double>(doc_.dom.node_count());
  const Seconds display_cost = final_cost + config_.costs.display_overhead;
  cpu_.submit(display_cost, [this, display_cost] {
    if (dead()) return;
    trace_stage(obs::Stage::kFinalDisplay, display_cost);
    finish_load();
  });
}

Seconds PageLoad::style_layout_render_cost() const {
  const auto nodes = static_cast<double>(doc_.dom.node_count());
  return (config_.costs.style_format_per_node + config_.costs.layout_per_node +
          config_.costs.render_per_node) *
         nodes;
}

void PageLoad::finish_load() {
  phase_ = Phase::kDone;
  metrics_.final_display = sim_.now();
  if (trace_) {
    trace_->record(sim_.now(), obs::TraceKind::kLoadDone, 0, 0,
                   metrics_.final_display);
  }
  if (metrics_.first_display == 0) metrics_.first_display = metrics_.final_display;

  compute_outputs();
  on_loaded_(metrics_);
}

void PageLoad::compute_outputs() {
  geometry_ = estimate_geometry(doc_.dom.root(), config_.viewport);
  features_.transmission_time = metrics_.transmission_time();
  features_.page_size_kb = to_kilobytes(page_bytes_without_figures_);
  features_.object_count = metrics_.objects_fetched;
  features_.js_file_count = js_file_count_;
  features_.figure_count = figure_count_;
  features_.figure_size_kb = to_kilobytes(figure_bytes_);
  features_.js_running_time = metrics_.js_time;
  features_.secondary_url_count = static_cast<double>(doc_.secondary_urls.size());
  features_.page_height = geometry_.height_px;
  features_.page_width = geometry_.width_px;
}

}  // namespace eab::browser
