#include "src/xml/tagger.h"

#include <algorithm>

namespace gapply::xml {

void AppendEscapedXml(std::string_view text, std::string* out) {
  size_t done = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    const char* entity;
    switch (text[i]) {
      case '&':
        entity = "&amp;";
        break;
      case '<':
        entity = "&lt;";
        break;
      case '>':
        entity = "&gt;";
        break;
      default:
        continue;
    }
    out->append(text.substr(done, i - done));
    out->append(entity);
    done = i + 1;
  }
  out->append(text.substr(done));
}

std::string EscapeXml(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  AppendEscapedXml(text, &out);
  return out;
}

Tagger::Tagger(const SouqPlan& plan,
               std::function<void(const std::string&)> sink)
    : nodes_(plan.nodes), sink_(std::move(sink)) {
  // A node always opens at the stack depth of its position in its chain,
  // so its indents are fixed.
  text_.resize(nodes_.size());
  for (size_t id = 0; id < nodes_.size(); ++id) {
    NodeText& t = text_[id];
    for (int n = static_cast<int>(id); n >= 0;
         n = nodes_[static_cast<size_t>(n)].parent) {
      t.chain.push_back(n);
    }
    std::reverse(t.chain.begin(), t.chain.end());
    const SouqNodeMeta& m = nodes_[id];
    const std::string indent(2 * t.chain.size(), ' ');
    t.open = indent + "<" + m.element_name + ">\n";
    t.close = indent + "</" + m.element_name + ">\n";
    for (const std::string& name : m.payload_names) {
      t.payload_open.push_back(indent + "  <" + name + ">");
      t.payload_close.push_back("</" + name + ">\n");
    }
  }
}

void Tagger::Flush() {
  if (buf_.empty()) return;
  sink_(buf_);
  buf_.clear();
}

void Tagger::Begin(const std::string& root_element) {
  root_element_ = root_element;
  buf_.reserve(kChunkBytes + 4096);
  buf_ += '<';
  buf_ += root_element_;
  buf_ += ">\n";
  begun_ = true;
}

void Tagger::CloseTo(size_t keep) {
  while (depth_ > keep) {
    --depth_;
    buf_ += text_[static_cast<size_t>(open_[depth_].node_id)].close;
  }
}

Status Tagger::Feed(const Row& row) {
  if (!begun_) return Status::Internal("Tagger::Begin not called");
  if (row.empty() || row[0].is_null()) {
    return Status::InvalidArgument("row without node id");
  }
  const int node_id = static_cast<int>(row[0].int_val());
  if (node_id < 0 || static_cast<size_t>(node_id) >= nodes_.size()) {
    return Status::InvalidArgument("unknown node id in tagged stream");
  }
  const std::vector<int>& chain = text_[static_cast<size_t>(node_id)].chain;

  // Keep the open elements that match this row's ancestry (same node id and
  // same key values); close the rest.
  size_t keep = 0;
  while (keep < depth_ && keep + 1 < chain.size()) {
    const OpenElement& oe = open_[keep];
    if (oe.node_id != chain[keep]) break;
    const SouqNodeMeta& ancestor = nodes_[static_cast<size_t>(chain[keep])];
    bool same = true;
    for (size_t k = 0; k < ancestor.key_columns.size(); ++k) {
      const Value& v = row[static_cast<size_t>(ancestor.key_columns[k])];
      if (!v.Equals(oe.keys[k])) {
        same = false;
        break;
      }
    }
    if (!same) break;
    ++keep;
  }
  CloseTo(keep);

  // Open any missing ancestors (normally none: parents' rows sort first)
  // and then this element.
  if (open_.size() < chain.size()) open_.resize(chain.size());
  for (size_t d = keep; d < chain.size(); ++d) {
    const auto n = static_cast<size_t>(chain[d]);
    const SouqNodeMeta& m = nodes_[n];
    const NodeText& t = text_[n];
    OpenElement& oe = open_[depth_++];
    oe.node_id = chain[d];
    oe.keys.clear();
    for (int kc : m.key_columns) {
      oe.keys.push_back(row[static_cast<size_t>(kc)]);
    }
    buf_ += t.open;
    if (chain[d] != node_id) continue;
    for (size_t p = 0; p < m.payload_columns.size(); ++p) {
      const Value& v = row[static_cast<size_t>(m.payload_columns[p])];
      buf_ += t.payload_open[p];
      if (v.type() == TypeId::kString) {
        AppendEscapedXml(v.str_val(), &buf_);
      } else {
        v.AppendTo(&buf_);  // no &, < or > in non-string renderings
      }
      buf_ += t.payload_close[p];
    }
  }
  if (buf_.size() >= kChunkBytes) Flush();
  return Status::OK();
}

Status Tagger::Finish() {
  if (!begun_) return Status::Internal("Tagger::Begin not called");
  CloseTo(0);
  buf_ += "</";
  buf_ += root_element_;
  buf_ += ">\n";
  Flush();
  begun_ = false;
  return Status::OK();
}

}  // namespace gapply::xml
