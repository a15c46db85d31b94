#ifndef DTDEVOLVE_CORE_OPTIONS_H_
#define DTDEVOLVE_CORE_OPTIONS_H_

#include <cstddef>

#include "classify/classifier.h"
#include "evolve/evolver.h"
#include "induce/inducer.h"
#include "similarity/similarity.h"

namespace dtdevolve::core {

/// All thresholds and knobs of the evolution process (Fig. 1), gathered
/// in one place:
///   σ — classification threshold (initialization phase),
///   τ — evolution activation threshold (check phase),
///   ψ — window threshold and µ — minimum sequence support (evolution
///       phase, inside `evolution`).
struct SourceOptions {
  /// Similarity a document must reach against some DTD to be classified;
  /// below it the document goes to the repository.
  double sigma = 0.5;
  /// Mean per-document divergence that triggers evolution of a DTD.
  double tau = 0.2;
  /// Run the check phase after every classification and evolve
  /// automatically when it fires.
  bool auto_evolve = true;
  /// The check phase never fires before this many documents were
  /// classified into the DTD ("after a certain number of documents").
  size_t min_documents_before_check = 10;
  /// Keep every classified document in memory as a DOM
  /// (`XmlSource::InstancesOf`), for experiments that re-validate them
  /// after evolution. Off by default: the store grows with every
  /// classified document and has no bound, and it forces a DOM for each
  /// one. The extended DTD already records what evolution needs, so the
  /// documents never have to be re-read.
  bool keep_documents = false;
  /// Re-classify repository documents automatically after an evolution.
  bool reclassify_after_evolution = true;
  /// Keep the incremental repository clusterer in sync with every
  /// repository mutation, so `InduceCandidates` (and the `/stats`
  /// cluster section) is always ready. Costs one similarity pass per
  /// *new structural fingerprint* entering the repository; identical
  /// structures join in O(1).
  bool cluster_repository = true;

  /// Parse incoming text through the single-pass streaming reader into
  /// an arena tree (`xml::ParseArenaDocument`) instead of the two-pass
  /// DOM parser. Outcome-equivalent — the streaming path accepts and
  /// rejects exactly the same inputs and classifies every document
  /// identically (the parse-path differential oracle enforces this) —
  /// but skips DOM materialization entirely on classification-memo hits.
  bool streaming_parse = true;

  evolve::EvolutionOptions evolution;
  /// Repository clustering → candidate-DTD induction knobs.
  induce::InduceOptions induce;
  similarity::SimilarityOptions similarity;
  /// Classification fast-path knobs (score-bound pruning, shared subtree
  /// score cache). Both layers are score-equivalent; the knobs only trade
  /// memory for speed.
  classify::ClassifierOptions classifier;
};

}  // namespace dtdevolve::core

#endif  // DTDEVOLVE_CORE_OPTIONS_H_
