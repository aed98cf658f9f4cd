#include "nn/module.h"

#include "tensor/ops.h"
#include "util/error.h"

namespace reduce {

void parameter::apply_mask() {
    if (!has_mask()) { return; }
    REDUCE_CHECK(mask.shape() == value.shape(),
                 "mask " << mask.describe() << " does not match parameter " << value.describe());
    mul_inplace(value, mask);
}

void parameter::mask_grad() {
    if (!has_mask()) { return; }
    REDUCE_CHECK(mask.shape() == grad.shape(),
                 "mask " << mask.describe() << " does not match gradient " << grad.describe());
    mul_inplace(grad, mask);
}

module& sequential::add(std::unique_ptr<module> layer) {
    REDUCE_CHECK(layer != nullptr, "sequential::add requires a layer");
    layers_.push_back(std::move(layer));
    return *layers_.back();
}

tensor sequential::forward(const tensor& input) {
    tensor x = input;
    for (auto& layer : layers_) { x = layer->forward(x); }
    return x;
}

tensor sequential::backward(const tensor& grad_output) {
    tensor g = grad_output;
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) { g = (*it)->backward(g); }
    return g;
}

void sequential::backward_params(const tensor& grad_output) {
    if (layers_.empty()) { return; }
    tensor g = grad_output;
    for (std::size_t i = layers_.size() - 1; i > 0; --i) { g = layers_[i]->backward(g); }
    layers_.front()->backward_params(g);
}

std::vector<parameter*> sequential::parameters() {
    std::vector<parameter*> all;
    for (auto& layer : layers_) {
        for (parameter* p : layer->parameters()) { all.push_back(p); }
    }
    return all;
}

std::vector<tensor*> sequential::state_buffers() {
    std::vector<tensor*> all;
    for (auto& layer : layers_) {
        for (tensor* t : layer->state_buffers()) { all.push_back(t); }
    }
    return all;
}

void sequential::set_training(bool training) {
    module::set_training(training);
    for (auto& layer : layers_) { layer->set_training(training); }
}

std::unique_ptr<module> sequential::clone() const {
    auto copy = std::make_unique<sequential>();
    for (const auto& layer : layers_) { copy->add(layer->clone()); }
    copy->training_ = training_;
    return copy;
}

std::unique_ptr<sequential> clone_model(const sequential& model) {
    std::unique_ptr<module> copy = model.clone();
    auto* seq = dynamic_cast<sequential*>(copy.get());
    REDUCE_CHECK(seq != nullptr, "sequential::clone produced a non-sequential module");
    copy.release();
    return std::unique_ptr<sequential>(seq);
}

module& sequential::layer(std::size_t index) {
    REDUCE_CHECK(index < layers_.size(),
                 "layer index " << index << " out of range (size " << layers_.size() << ")");
    return *layers_[index];
}

std::size_t parameter_count(const std::vector<parameter*>& params) {
    std::size_t total = 0;
    for (const parameter* p : params) { total += p->value.numel(); }
    return total;
}

void apply_all_masks(const std::vector<parameter*>& params) {
    for (parameter* p : params) { p->apply_mask(); }
}

void zero_all_grads(const std::vector<parameter*>& params) {
    for (parameter* p : params) { p->zero_grad(); }
}

}  // namespace reduce
